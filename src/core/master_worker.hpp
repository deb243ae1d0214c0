// The MSPolygraph baseline (steps S1–S4 of Section II-A): master–worker
// parallelization with the database fully replicated in every worker's
// memory — O(N) space per processor, which is exactly the limitation the
// paper's Algorithms A/B remove. Included as the comparison baseline for
// the space benchmark and the validation suite.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/algorithm_a.hpp"
#include "core/config.hpp"
#include "simmpi/runtime.hpp"
#include "spectra/spectrum.hpp"

namespace msp {

struct MasterWorkerOptions {
  /// Queries per demand-driven batch (S2: "small, fixed size batches").
  std::size_t batch_size = 16;
};

/// Run the baseline on runtime.size() ranks (rank 0 is the master; with
/// p == 1 the run degenerates to the serial uni-worker MSPolygraph, per the
/// paper's speedup-baseline convention). Under a per-rank memory budget
/// (sim::Runtime::set_memory_budget) the baseline hits the wall at ~O(N),
/// reproducing the paper's "1.27 million protein sequences per 1 GB".
ParallelRunResult run_master_worker(const sim::Runtime& runtime,
                                    const std::string& fasta_image,
                                    const std::vector<Spectrum>& queries,
                                    const SearchConfig& config,
                                    const MasterWorkerOptions& options = {});

}  // namespace msp
