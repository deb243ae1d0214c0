// Candidate-store strategy — the second extension the paper's Discussion
// proposes: "it may be worth exploring an alternative strategy in which
// candidates, and not the database sequences, are stored in-memory and are
// communicated on demand to worker processors. This strategy could
// drastically reduce the overall computation time. While current
// approaches are not designed to store such large magnitudes of candidates
// in memory, our algorithm, because of its space-optimality, makes the
// investigation of this alternative approach feasible. Furthermore, the
// sorting version of our approach (Algorithm B) could prove more useful
// under this setting."
//
// Realization:
//   1. Every rank enumerates its chunk's candidate fragments (prefixes and
//      suffixes in the global query-mass window) into fixed-size records.
//   2. The records are parallel counting-sorted by mass across ranks —
//      Algorithm B's machinery applied to candidates instead of sequences.
//   3. Query processing fetches, on demand, only the record ranges whose
//      mass window matches (partial one-sided gets guided by each rank's
//      mass directory) — no whole-database rotation at all.
// The trade: candidate generation cost is paid once per candidate (not
// once per evaluation), and transfers shrink to the matching ranges; in
// exchange the store is much larger than the raw sequences — measured by
// bench_candidate_store.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/algorithm_a.hpp"
#include "core/candidate_record.hpp"
#include "core/config.hpp"
#include "simmpi/runtime.hpp"
#include "spectra/spectrum.hpp"

namespace msp {

/// `candidates` counts evaluations (scored records).
struct CandidateStoreResult : ParallelRunResult {
  std::uint64_t stored_candidates = 0; ///< records built into the store
  double build_seconds = 0.0;          ///< max over ranks (store + sort)
};

/// The store scores each query's reported precursor mass at ±tolerance_da
/// with the full model, so it rejects (InvalidArgument) the configs whose
/// hits that cannot reproduce: tryptic candidates, peptides over 63
/// residues, the prefilter, alternate charge hypotheses and open search.
/// Crash schedules are rejected too (FaultUnrecoverable): the store has no
/// replica to recover a dead rank's records from.
CandidateStoreResult run_candidate_store(const sim::Runtime& runtime,
                                         const std::string& fasta_image,
                                         const std::vector<Spectrum>& queries,
                                         const SearchConfig& config);

}  // namespace msp
