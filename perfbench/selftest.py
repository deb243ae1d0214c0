#!/usr/bin/env python3
"""Self-test of the two-clock benchmark.

    python3 perfbench/selftest.py

Runs every workload twice at a quarter of its size, untraced and traced,
through run.py. Each run already aborts if any pass's hits differ from the
serial oracle (and, traced, if the layer replay's hits differ from the
end-to-end pass or SearchEngine::search) or if a workload's own claim
fails. On top of that, this checks that every count and every
virtual-clock value reads exactly the same in both runs of a workload.
Host-clock metrics are exempt: they are measurements, not outputs.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch-wide", "open-ptm", "serve-poisson", "sched-mix")
HOST_CLOCK = {
    "host_qps", "host_cpu_ms_per_query", "setup_s", "peak_rss_mb",
    "dbgen.generate_s", "core.partition.load_shard_s",
    "core.candidate_index.build_s", "core.candidate_record.enumerate_sort_s",
    "core.shard_map.histogram_build_s", "core.fragment_index.build_s",
    "core.search_engine.prepare_s", "core.search_engine.search_shard_s",
    "core.search_engine.finalize_s", "scoring.kernel.match_ns",
    "simmpi.run_spawn_s", "simmpi.barrier_ns", "simmpi.send_recv_ns",
    "simmpi.rget_fence_ns", "bench.attributed_cpu_ratio",
    "bench.tracing_overhead_ratio",
}


def run(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--scale", "0.25"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"selftest: {workload} trace={trace} failed")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    wanted = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            first, second = run(workload, trace), run(workload, trace)
            assert set(first) == wanted[trace], (workload, trace, set(first))
            exact = sorted(set(first) - HOST_CLOCK)
            differ = [name for name in exact if first[name] != second[name]]
            if differ:
                sys.exit(f"selftest: {workload} trace={trace}: "
                         f"{', '.join(differ)} did not repeat")
            print(f"{workload} trace={trace}: {len(exact)} exact values "
                  "repeated, oracle passed")
    print("selftest passed")


if __name__ == "__main__":
    main()
