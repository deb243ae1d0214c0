// Sub-group hybrid — the extension the paper's Discussion proposes for
// "medium range inputs": "it could be worth exploring an extension of our
// approach in which processors can divide themselves into smaller
// sub-groups, where the database is partitioned within each sub-group and
// the query set is partitioned across sub-groups."
//
// With g sub-groups of size p/g each:
//   * every sub-group holds the WHOLE database, partitioned across its own
//     members → per-rank memory O(N·g/p + m/p);
//   * queries are partitioned across sub-groups → each ring is only p/g
//     long, so each shard transfer moves g× more bytes but there are g×
//     fewer fenced iterations (less latency/sync, better masking);
//   * g = 1 degenerates to Algorithm A; g = p degenerates to the
//     master–worker baseline's memory profile (replicated database).
// Each sub-ring runs Algorithm A with its default options (masked
// prefetch, a fence every step, mass routing); g is the only setting.
// The bench sweep over g exposes the memory/run-time trade-off the paper
// anticipated.
#pragma once

#include <string>
#include <vector>

#include "core/algorithm_a.hpp"
#include "core/config.hpp"
#include "simmpi/runtime.hpp"
#include "spectra/spectrum.hpp"

namespace msp {

struct HybridOptions {
  /// Number of sub-groups g; must divide p. 0 = auto (√p rounded to a
  /// divisor, balancing ring length against replication).
  int groups = 0;
};

struct HybridResult : ParallelRunResult {
  int groups_used = 0;
};

/// Largest divisor of p that is <= sqrt(p) (the auto choice for g).
int default_group_count(int p);

HybridResult run_algorithm_hybrid(const sim::Runtime& runtime,
                                  const std::string& fasta_image,
                                  const std::vector<Spectrum>& queries,
                                  const SearchConfig& config,
                                  const HybridOptions& options = {});

}  // namespace msp
