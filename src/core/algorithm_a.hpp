// Algorithm A (Figure 2 of the paper): space-optimal parallel peptide
// identification via ring rotation of database shards.
//
// Per rank i of p:
//   A1. Load the i-th N/p byte chunk of the database file (boundary
//       repaired) and the i-th m/p block of queries — space O((N+m)/p).
//   A2. For s = 0..p-1: let j = (i+s) mod p. Before processing shard j,
//       issue a non-blocking one-sided get for shard (i+s+1) mod p into
//       D_recv (communication masked by computation); compare all local
//       queries against D_comp (= shard j), maintaining a running top-τ per
//       query; wait on the get; swap buffers.
//   A3. Report each local query's top-τ list.
//
// Three O(N/p) database buffers exist at any time: D_local (exposed via the
// RMA window), D_recv and D_comp — exactly the paper's memory layout.
#pragma once

#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/hit.hpp"
#include "simmpi/runtime.hpp"
#include "spectra/spectrum.hpp"

namespace msp {

struct AlgorithmAOptions {
  /// Mask communication with computation (the paper's design). When false,
  /// each shard is fetched blocking before it is processed — the paper's
  /// "second version of the algorithm that does not mask".
  bool mask = true;
  /// Synchronize the window at every ring step (MPI_Win_fence-style active
  /// target, the standard 2009 one-sided pattern over ethernet). Makes per-
  /// iteration load imbalance visible as wait time; ablatable.
  bool fence_per_iteration = true;
  /// Mass-aware shard routing (the serving ring's router, shared): exchange
  /// per-shard mass histograms up front, then skip ring steps whose shard
  /// provably holds no candidate for this rank's query block — a constant
  /// routing-decision charge instead of a fetch plus a scoring pass. Hits
  /// are bit-identical with routing on or off.
  bool mass_routing = true;
};

/// Result of a simulated parallel run.
struct ParallelRunResult {
  sim::RunReport report;
  QueryHits hits;                     ///< hits[q], best-first, global order
  std::uint64_t candidates = 0;       ///< total candidate evaluations
};

/// Run Algorithm A on `runtime.size()` simulated ranks. `fasta_image` is the
/// database file contents (the ranks chunk-load it per step A1).
ParallelRunResult run_algorithm_a(const sim::Runtime& runtime,
                                  const std::string& fasta_image,
                                  const std::vector<Spectrum>& queries,
                                  const SearchConfig& config,
                                  const AlgorithmAOptions& options = {});

}  // namespace msp
