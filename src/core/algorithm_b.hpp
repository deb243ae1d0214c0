// Algorithm B (Figure 3 of the paper): Algorithm A plus a parallel
// counting-sort preprocessing step that orders the database by parent m/z,
// so each rank only transports shards from its "sender group".
//
// Candidates for query q can only come from sequences d with
// m(d) ≥ m(q) − δ (a prefix/suffix cannot outweigh its parent). After the
// sort, rank i computes m(q)_min over its local queries, locates the lowest
// rank i′ whose m/z range can still contain such sequences, and restricts
// the ring to {i′, ..., p−1}. The local query set is kept sorted by m/z so
// the kernel's binary search prunes per-shard work (step B3's refinement).
#pragma once

#include <string>
#include <vector>

#include "core/algorithm_a.hpp"
#include "core/config.hpp"
#include "core/hit.hpp"
#include "simmpi/runtime.hpp"
#include "spectra/spectrum.hpp"

namespace msp {

struct AlgorithmBResult : ParallelRunResult {
  double max_sort_seconds = 0.0;   ///< Table IV's "Sorting time" column
  double mean_shards_visited = 0.0;  ///< sender-group size actually used
};

/// The restricted ring always masks each fetch behind the previous step's
/// scoring and fences every step. Crash schedules are rejected up front
/// (FaultUnrecoverable): the sorted shards have no replica to recover from.
AlgorithmBResult run_algorithm_b(const sim::Runtime& runtime,
                                 const std::string& fasta_image,
                                 const std::vector<Spectrum>& queries,
                                 const SearchConfig& config);

}  // namespace msp
