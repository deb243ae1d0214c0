// Space benchmark: the paper's headline O((N+m)/p) space-optimality claim
// against the O(N)-per-rank master–worker baseline.
//
// Section I: "given 1 GB RAM per processor, ... the maximum database size
// that the current implementation was able to handle was 1.27 million
// protein sequences, beyond which the code resorts to swap space or crashes
// out of memory"; Section III-A: "we were able to store and analyze 2.65
// million sequences using as little as 8 processors."
//
// Here: per-rank peak memory of Algorithm A vs the baseline as p grows, and
// the largest database each can run under a fixed per-rank budget.
#include <iostream>

#include "bench/common.hpp"
#include "core/algorithm_a.hpp"
#include "core/master_worker.hpp"
#include "util/error.hpp"
#include "util/str.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  msp::Cli cli("bench_space",
               "space-optimality: Algorithm A vs the replicated-DB baseline");
  msp::bench::add_common_options(cli);
  cli.add_int("sequences", 16000, "database size for the peak-memory sweep");
  cli.add_int("budget-kib", 2048, "per-rank memory budget for the wall test");
  if (!cli.parse(argc, argv)) return 0;

  const auto query_count = static_cast<std::size_t>(cli.get_int("queries"));
  const auto sequences = static_cast<std::size_t>(cli.get_int("sequences"));
  auto procs = cli.get_int_list("procs");
  std::erase_if(procs, [](std::int64_t p) { return p < 2; });

  const msp::bench::Workload workload = msp::bench::make_workload(
      sequences, query_count, static_cast<std::uint64_t>(cli.get_int("seed")));
  const std::string image = workload.image_of_first(sequences);
  const msp::SearchConfig config = msp::bench::bench_config();

  std::cout << "== Per-rank peak memory (accounted bytes), "
            << msp::group_digits(sequences) << " sequences ==\n";
  msp::Table table({"p", "Algorithm A peak/rank", "baseline peak/rank",
                    "A advantage"});
  for (auto p : procs) {
    const msp::sim::Runtime runtime(static_cast<int>(p),
                                    msp::bench::bench_network(),
                                    msp::bench::bench_compute());
    const std::size_t a_peak =
        msp::run_algorithm_a(runtime, image, workload.queries, config)
            .report.max_peak_memory();
    const std::size_t mw_peak =
        msp::run_master_worker(runtime, image, workload.queries, config)
            .report.max_peak_memory();
    table.add_row({std::to_string(p), msp::format_bytes(a_peak),
                   msp::format_bytes(mw_peak),
                   msp::Table::cell(static_cast<double>(mw_peak) /
                                        static_cast<double>(a_peak),
                                    1) +
                       "x"});
  }
  table.print(std::cout);
  std::cout << "shape: A's peak shrinks ~1/p; the baseline's stays O(N).\n\n";

  // The 1 GB wall, scaled: grow the database until the baseline OOMs under
  // the budget, then show Algorithm A still runs it.
  const std::size_t budget =
      static_cast<std::size_t>(cli.get_int("budget-kib")) * 1024;
  std::cout << "== Fixed per-rank budget of " << msp::format_bytes(budget)
            << " (the paper's 1 GB wall, scaled) ==\n";
  const int p_wall = 8;
  std::size_t baseline_wall = 0;
  for (std::size_t n = 1000; n <= sequences; n *= 2) {
    const std::string sub_image = workload.image_of_first(n);
    msp::sim::Runtime runtime(p_wall, msp::bench::bench_network(),
                              msp::bench::bench_compute());
    runtime.set_memory_budget(budget);
    try {
      msp::run_master_worker(runtime, sub_image, workload.queries, config);
      baseline_wall = n;
    } catch (const msp::OutOfMemoryBudget&) {
      std::cout << "baseline (replicated DB): OOM at " << msp::group_digits(n)
                << " sequences (last success: "
                << msp::group_digits(baseline_wall) << ")\n";
      break;
    }
  }
  {
    msp::sim::Runtime runtime(p_wall, msp::bench::bench_network(),
                              msp::bench::bench_compute());
    runtime.set_memory_budget(budget);
    try {
      msp::run_algorithm_a(runtime, image, workload.queries, config);
      std::cout << "Algorithm A (O(N/p)): full " << msp::group_digits(sequences)
                << "-sequence database fits on p=" << p_wall
                << " under the same budget\n";
    } catch (const msp::OutOfMemoryBudget&) {
      std::cout << "Algorithm A: unexpectedly exceeded the budget\n";
    }
  }
  std::cout << "paper: baseline capped at 1.27M sequences/GB; A analyzed "
               "2.65M sequences on 8 processors.\n";
  return 0;
}
