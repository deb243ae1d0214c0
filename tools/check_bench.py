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

  kernel BENCH_kernel.json        (bench/kernel_ablation.cpp)
      Wall-clock regression gate. kernel_simd_over_scalar >=
      --min-kernel-ratio (default 2.0) whenever the run was built with SIMD
      (the acceptance floor for the blocked kernel);
      ladder_fused_over_two_step >= LADDER_RATIO_FLOOR (2.3) whenever
      the entry records it (the fused two-stream ladder builder against
      the fragment_ions_into + build_ion_ladder path; a builder that
      merges the b and y series again reads about 2.2); speedup_indexed_scalar
      (indexed engine vs reference re-sort engine) and
      kernel_simd_over_scalar must not drop more than --max-regression
      (default 10%) relative to the baseline entry.

  sched BENCH_sched.json          (bench/sched_mix.cpp)
      Scheduler regression gate. reclaimed_idle_ratio >= --min-reclaim
      (default 0.30): backfilled batch ring time must reclaim at least 30%
      of the measured per-rank serve idle. serve_p99_ratio <=
      --max-p99-ratio (default 1.10): sharing the ring may degrade serve
      tail latency by at most 10% over the serve-only cell. Neither may
      drift the wrong way by more than --max-regression (default 10%)
      relative to the baseline entry.

The kernel and sched inputs are JSON arrays of trajectory entries: entry 0
is the committed baseline, the last entry is the run under test (the bench
appends its entry on every run). Those gates check RATIOS, not absolute
seconds, so they transfer across machines and shared CI runners.

Each subcommand prints the values it gates on, then one line per check.
Exit code 0 = pass, 1 = a check failed, 2 = malformed input.
"""

import argparse
import json
import sys

# Floor for the fused ion-ladder builder over the two-step path: 70% of
# the lowest of 10 readings of the two-stream builder (3.31, EXPERIMENTS.md
# "Two-stream ion ladders"), above the merging builder's 1.87-2.30.
LADDER_RATIO_FLOOR = 2.3


def fail(msg: str, code: int = 1) -> None:
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(code)


def read(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"cannot read {path}: {err}", code=2)


def load(path: str) -> dict:
    result = read(path)
    if not isinstance(result, dict):
        fail(f"{path} is not a JSON object", code=2)
    return result


def load_trajectory(path: str):
    """(baseline, current) entries of a trajectory array, announced."""
    entries = read(path)
    if not isinstance(entries, list) or not entries:
        fail(f"{path} is not a non-empty JSON array", code=2)
    baseline, current = entries[0], entries[-1]
    print(f"baseline entry: {baseline.get('label', '?')}  "
          f"current entry: {current.get('label', '?')}  "
          f"({len(entries)} entries)")
    return baseline, current


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


def verdict(checked, passed_line: str) -> None:
    """checked: (name, detail, passed) triples; prints each, exits 1 on a
    miss, else prints passed_line."""
    ok = True
    for name, detail, passed in checked:
        print(f"{'PASS' if passed else 'FAIL'}: {name}: {detail}")
        ok &= passed
    if not ok:
        sys.exit(1)
    print(passed_line)


def check_kernel(args) -> None:
    baseline, current = load_trajectory(args.result)
    checked = []
    if current.get("simd_compiled"):
        ratio = current.get("kernel_simd_over_scalar")
        if ratio is None:
            fail("simd build but no kernel_simd_over_scalar in entry", code=2)
        checked.append(("kernel_simd_over_scalar floor",
                        f"{ratio:.3f} >= {args.min_kernel_ratio:.3f}",
                        ratio >= args.min_kernel_ratio))

    ladder = current.get("ladder_fused_over_two_step")
    if ladder is not None:
        checked.append(("ladder_fused_over_two_step floor",
                        f"{ladder:.3f} >= {LADDER_RATIO_FLOOR:.3f}",
                        ladder >= LADDER_RATIO_FLOOR))

    # Relative-drop checks only compare like with like: a scalar-only run
    # has no SIMD ratios, and comparing its end-to-end speedup against a
    # SIMD baseline is still valid because speedup_indexed_scalar is
    # measured under the forced-scalar backend in every build.
    for key in ("speedup_indexed_scalar", "kernel_simd_over_scalar"):
        base, cur = baseline.get(key), current.get(key)
        if base is None or cur is None:
            continue
        floor = base * (1.0 - args.max_regression)
        checked.append((f"{key} vs baseline",
                        f"{cur:.3f} >= {floor:.3f} ({base:.3f} - "
                        f"{args.max_regression:.0%})",
                        cur >= floor))
    if not checked:
        fail("no gateable metrics found in trajectory entries", code=2)
    verdict(checked, "kernel bench gate: all checks passed")


def check_sched(args) -> None:
    baseline, current = load_trajectory(args.result)
    reclaim = current.get("reclaimed_idle_ratio")
    p99_ratio = current.get("serve_p99_ratio")
    if reclaim is None or p99_ratio is None:
        fail("entry lacks reclaimed_idle_ratio / serve_p99_ratio", code=2)

    checked = [
        ("reclaimed_idle_ratio floor",
         f"{reclaim:.3f} >= {args.min_reclaim:.3f}",
         reclaim >= args.min_reclaim),
        ("serve_p99_ratio ceiling",
         f"{p99_ratio:.3f} <= {args.max_p99_ratio:.3f}",
         p99_ratio <= args.max_p99_ratio),
    ]
    base_reclaim = baseline.get("reclaimed_idle_ratio")
    if base_reclaim is not None:
        floor = base_reclaim * (1.0 - args.max_regression)
        checked.append(("reclaimed_idle_ratio vs baseline",
                        f"{reclaim:.3f} >= {floor:.3f} ({base_reclaim:.3f} - "
                        f"{args.max_regression:.0%})",
                        reclaim >= floor))
    base_p99 = baseline.get("serve_p99_ratio")
    if base_p99 is not None:
        ceiling = base_p99 * (1.0 + args.max_regression)
        checked.append(("serve_p99_ratio vs baseline",
                        f"{p99_ratio:.3f} <= {ceiling:.3f} ({base_p99:.3f} + "
                        f"{args.max_regression:.0%})",
                        p99_ratio <= ceiling))
    verdict(checked, "sched bench gate: all checks passed")


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("serve", help="routed serve sweep gate").add_argument(
        "result", help="path to BENCH_serve_routed.json")
    commands.add_parser("open", help="open-search speedup gate").add_argument(
        "result", help="path to BENCH_open.json")
    kernel = commands.add_parser("kernel", help="kernel wall-clock gate")
    kernel.add_argument("result", help="path to BENCH_kernel.json")
    kernel.add_argument("--min-kernel-ratio", type=float, default=2.0,
                        help="floor for kernel_simd_over_scalar (SIMD builds)")
    kernel.add_argument("--max-regression", type=float, default=0.10,
                        help="max relative drop vs the baseline entry")
    sched = commands.add_parser("sched", help="scheduler mix gate")
    sched.add_argument("result", help="path to BENCH_sched.json")
    sched.add_argument("--min-reclaim", type=float, default=0.30,
                       help="floor for reclaimed_idle_ratio")
    sched.add_argument("--max-p99-ratio", type=float, default=1.10,
                       help="ceiling for serve_p99_ratio (mixed / serve-only)")
    sched.add_argument("--max-regression", type=float, default=0.10,
                       help="max relative drift vs the baseline entry")
    args = parser.parse_args()
    if args.command == "kernel":
        check_kernel(args)
    elif args.command == "sched":
        check_sched(args)
    else:
        {"serve": check_serve, "open": check_open}[args.command](args.result)


if __name__ == "__main__":
    main()
