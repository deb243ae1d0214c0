#!/usr/bin/env python3
"""Bench result gates for CI, one subcommand per bench output.

  serve BENCH_serve_routed.json   (bench/serve_latency.cpp, routed sweep)
      The mass router must actually skip work: the sustained cell's
      skip_ratio > 0 and steps_skipped > 0. A sweep where the router never
      proves a (batch, band) slot empty means routing has regressed to
      visit-everything, even if the hits are still right.

  open BENCH_open.json            (bench/open_search.cpp)
      The fragment-indexed open search must be at least 5x faster than the
      exhaustive source (speedup >= 5.0) and must build fewer ions
      (ions_built_indexed < ions_built_exhaustive).

Each subcommand prints the values it gates on, then one line per check.
Exit code 0 = pass, 1 = a check failed, 2 = malformed input.
"""

import argparse
import json
import sys


def fail(msg: str, code: int = 1) -> None:
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(code)


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"cannot read {path}: {err}", code=2)
    if not isinstance(result, dict):
        fail(f"{path} is not a JSON object", code=2)
    return result


def field(record: dict, key: str, path: str):
    if key not in record:
        fail(f"{path} lacks {key}", code=2)
    return record[key]


def gate(checks) -> None:
    """checks: (name, passed) pairs; prints each, fails on any miss."""
    failed = [name for name, passed in checks if not passed]
    for name, passed in checks:
        print(f"  {'ok  ' if passed else 'FAIL'} {name}")
    if failed:
        fail("; ".join(failed))


def check_serve(path: str) -> None:
    sustained = field(load(path), "sustained", path)
    skip_ratio = field(sustained, "skip_ratio", path)
    steps_skipped = field(sustained, "steps_skipped", path)
    print("skip_ratio", skip_ratio,
          "routed_vs_multi", field(sustained, "routed_vs_multi", path))
    gate([
        ("mass router skipped (skip_ratio > 0)", skip_ratio > 0.0),
        ("steps skipped (steps_skipped > 0)", steps_skipped > 0),
    ])


def check_open(path: str) -> None:
    result = load(path)
    speedup = field(result, "speedup", path)
    indexed = field(result, "ions_built_indexed", path)
    exhaustive = field(result, "ions_built_exhaustive", path)
    print("speedup", speedup, "ions", indexed, "vs", exhaustive)
    gate([
        ("indexed open search at least 5x (speedup >= 5.0)", speedup >= 5.0),
        ("indexed builds fewer ions than exhaustive", indexed < exhaustive),
    ])


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("serve", help="routed serve sweep gate").add_argument(
        "result", help="path to BENCH_serve_routed.json")
    commands.add_parser("open", help="open-search speedup gate").add_argument(
        "result", help="path to BENCH_open.json")
    args = parser.parse_args()
    {"serve": check_serve, "open": check_open}[args.command](args.result)


if __name__ == "__main__":
    main()
