// The serial search kernel shared by every parallelization.
//
// Candidate rule (Section II-A): a prefix or suffix of a database sequence
// is a candidate for query q iff its neutral mass lies within m(q) ± δ.
//
// One kernel, two spans. The kernel is *candidate-centric*: it merge-joins
// a mass-ascending candidate span against the mass-sorted query hypotheses,
// builds each matched candidate's theoretical fragment ions exactly once
// (into a reusable workspace) and scores them against every query whose
// window contains it, instead of regenerating them per (candidate, query)
// pair. The paper's Discussion identifies on-the-fly candidate generation
// as the dominant query-processing cost; this is the HiCOPS-style fix. The
// span is either a shard's index entries (search_shard, read through a
// ShardView wherever they live) or a band of the
// serving ring's CandidateRecord layout (search_records); both run the same
// merge-join and the same per-pair score step, and search_shard fans the
// join out over kernel_threads. Open search in search_shard swaps the
// merge-join for a query-centric walk through a CandidateSource but keeps
// the score step and the fan-out. The
// original database-walking kernel is retained as search_shard_reference()
// — the one oracle tests prove every path hit-for-hit identical against.
//
// Every algorithm (serial, A, B, master–worker, query transport) funnels
// through search_shard(), and the serving ring through search_records(),
// which is what makes the cross-algorithm hit-for-hit validation
// meaningful; every caller books the work through charge_kernel().
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/candidate_index.hpp"
#include "core/candidate_record.hpp"
#include "core/config.hpp"
#include "core/fragment_index.hpp"
#include "core/hit.hpp"
#include "core/shard_view.hpp"
#include "mass/peptide.hpp"
#include "scoring/likelihood.hpp"
#include "scoring/top_hits.hpp"
#include "simmpi/netmodel.hpp"
#include "spectra/spectrum.hpp"
#include "spectra/theoretical.hpp"

namespace msp {

/// Preprocessed queries plus the mass-sorted view the kernel searches.
/// The sorted view holds one *entry* per parent-mass hypothesis — exactly
/// one per query normally, one per charge hypothesis when
/// SearchConfig::try_alternate_charges is on — so `order`/`sorted_masses`
/// may be longer than `spectra`.
struct PreparedQueries {
  std::vector<Spectrum> spectra;       ///< preprocessed copies
  std::vector<QueryContext> contexts;  ///< binned + background, per query
  std::vector<double> masses;          ///< reported parent mass, query order
  std::vector<std::uint32_t> order;    ///< entry k → query index
  std::vector<double> sorted_masses;  ///< entry k → hypothesis mass, rising
  /// Open search only (empty otherwise): each query's occupied_bins(), the
  /// query-side half of the fragment-index lookup, in query order.
  std::vector<std::vector<std::uint32_t>> occupied;

  std::size_t size() const { return spectra.size(); }
  double min_mass() const;  ///< the paper's m(q)_min (0 when empty)
  double max_mass() const;
};

struct ShardSearchStats {
  std::uint64_t candidates_evaluated = 0;  ///< fully scored (the paper's r)
  std::uint64_t candidates_prefiltered = 0;  ///< screened out cheaply
  std::uint64_t hits_offered = 0;          ///< top-τ updates attempted
  /// Theoretical fragment-ion generations. The candidate-centric kernel
  /// builds each matched candidate's ions once and reuses them across every
  /// matching query/prefilter, so ions_built ≤ evaluated + prefiltered (with
  /// strict inequality whenever candidates match several hypotheses); the
  /// reference kernel regenerates per scoring call.
  std::uint64_t ions_built = 0;
  /// Fragment-index postings visited during open-search lookups (the
  /// indexed source's whole per-candidate cost; always 0 in narrow-window
  /// search and for the exhaustive source).
  std::uint64_t postings_scanned = 0;

  ShardSearchStats& operator+=(const ShardSearchStats& other) {
    candidates_evaluated += other.candidates_evaluated;
    candidates_prefiltered += other.candidates_prefiltered;
    hits_offered += other.hits_offered;
    ions_built += other.ions_built;
    postings_scanned += other.postings_scanned;
    return *this;
  }
};

/// Virtual compute seconds one kernel invocation costs under `model` —
/// the single place where candidate work maps onto the simulated clock.
/// ρ splits into a generation part (charged per ion build, which the
/// candidate-centric kernel amortizes across queries) and a comparison part
/// (charged per full evaluation) — the same split candidate_store uses, so
/// "store pays generation once" and "the kernel reuses ions" land on one
/// consistent clock.
inline double kernel_cost_seconds(const ShardSearchStats& stats,
                                  const sim::ComputeModel& model) {
  const double generation =
      model.seconds_per_candidate * model.candidate_generation_fraction;
  const double evaluation =
      model.seconds_per_candidate * (1.0 - model.candidate_generation_fraction);
  return static_cast<double>(stats.ions_built) * generation +
         static_cast<double>(stats.candidates_evaluated) * evaluation +
         static_cast<double>(stats.candidates_prefiltered) *
             model.seconds_per_prefilter +
         static_cast<double>(stats.hits_offered) *
             model.seconds_per_hit_update +
         static_cast<double>(stats.postings_scanned) *
             model.seconds_per_posting;
}

namespace sim {
class Comm;
}  // namespace sim

/// Book one kernel invocation on `comm`'s rank: charge its
/// kernel_cost_seconds under the run's compute model and bump the
/// `candidates`, `prefiltered`, `offers`, `ions` and `postings` counters —
/// the one place every algorithm records kernel work, so every run reports the
/// same counter set.
void charge_kernel(sim::Comm& comm, const ShardSearchStats& stats);

class SearchEngine {
 public:
  explicit SearchEngine(SearchConfig config);

  const SearchConfig& config() const { return config_; }

  /// Preprocess and index a query set (any subset of the global queries).
  PreparedQueries prepare(std::span<const Spectrum> queries) const;

  /// The parent-mass hypotheses one raw query contributes — exactly the
  /// enumeration prepare() feeds the kernel (one per charge hypothesis when
  /// try_alternate_charges is on, else the reported parent mass), computable
  /// without preprocessing since preprocessing never alters the precursor.
  /// This is what mass routing matches against shard histograms: routing
  /// and scoring must window on the same masses.
  std::vector<double> hypothesis_masses(const Spectrum& query) const;

  /// Score every candidate of `shard` against every matching query in
  /// `queries`, updating tops[q]. tops.size() must equal queries.size().
  /// If `per_query_candidates` is non-null it accumulates, per query, the
  /// number of candidates evaluated (Fig. 1b measurements).
  ///
  /// The candidate-centric kernel over the index span: merge-joins `index`
  /// (the shard's mass-sorted CandidateIndex, normally shipped with the
  /// shard bytes) against the sorted query hypotheses, building each
  /// matched candidate's fragment ions once. When `index` is null a
  /// temporary one, clipped to these queries' envelope, is built in-place,
  /// so every caller gets the same path. A given index must cover the
  /// queries' [min_mass, max_mass] under windows no wider than the ones it
  /// was clipped for; a mismatched index throws InvalidArgument instead of
  /// silently returning fewer hits.
  /// When config().kernel_threads > 1 the index range fans out over that
  /// many threads with per-thread top-τ lists merged under the total hit
  /// order — hits and counters are identical for every thread count.
  ///
  /// When config().open_search() the kernel switches to the query-centric
  /// open form: each hypothesis windows [m − window_below, m + window_above]
  /// of the index, a CandidateSource gates the window down to candidates
  /// with ≥ vote_gate() matched ions, and only survivors are fully scored.
  /// `fragment` selects the indexed source (per candidate_source; a null
  /// fragment with kAuto falls back to exhaustive enumeration — the serial
  /// engine's path); hits are bit-identical across sources, thread
  /// counts, and fault schedules. Narrow-window search ignores `fragment`.
  ShardSearchStats search_shard(
      const ProteinDatabase& shard, const PreparedQueries& queries,
      std::span<TopK<Hit>> tops,
      std::vector<std::uint64_t>* per_query_candidates = nullptr,
      const CandidateIndex* index = nullptr,
      const FragmentIndex* fragment = nullptr) const;

  /// The same kernel over a borrowed shard: a shard image validated in
  /// place (unpack_shard) or an owned shard's ShardView::of. The six-
  /// argument form views its arguments and lands here. The view's entries
  /// must satisfy the coverage and parameter rules above (InvalidArgument
  /// otherwise), and its fragment index, when present, plays `fragment`'s
  /// part.
  ShardSearchStats search_shard(
      const ShardView& shard, const PreparedQueries& queries,
      std::span<TopK<Hit>> tops,
      std::vector<std::uint64_t>* per_query_candidates = nullptr) const;

  /// The same candidate-centric kernel over the record span: runs
  /// search_shard()'s merge-join and score step over a mass-ascending
  /// CandidateRecord span (a band of the serving ring's sorted record
  /// layout, or any partial fetch of one). In narrow mode hits and counters
  /// equal search_shard()'s over the same candidates; in open mode the
  /// vote gate screens each (record, hypothesis) pair, so hits equal both
  /// CandidateSources'. Single-threaded: a band visit touches few records,
  /// so there is nothing to fan out.
  ShardSearchStats search_records(std::span<const CandidateRecord> records,
                                  const PreparedQueries& queries,
                                  std::span<TopK<Hit>> tops) const;

  /// The original database-walking kernel (re-enumerates candidates and
  /// regenerates ions per scoring call). Kept as the ground truth the
  /// kernel-equivalence tests compare search_shard() against. In open mode
  /// it applies the identical widened window and vote gate, so it is also
  /// the oracle for both open-search candidate sources.
  ShardSearchStats search_shard_reference(
      const ProteinDatabase& shard, const PreparedQueries& queries,
      std::span<TopK<Hit>> tops,
      std::vector<std::uint64_t>* per_query_candidates = nullptr) const;

  /// Score one candidate peptide against one query (model dispatch).
  double score_candidate(const QueryContext& context,
                         std::string_view peptide) const;

  /// Same, over the candidate's prebuilt ion ladder — the form the blocked
  /// kernel calls so the ladder is built once per candidate and reused
  /// across every matching query. `peptide` is still needed for the
  /// spectral-library lookup in hybrid mode. The string overload funnels
  /// here, which is what keeps the reference oracle bit-identical to the
  /// kernels.
  double score_candidate(const QueryContext& context, std::string_view peptide,
                         const IonLadder& ladder) const;

  /// Serial end-to-end search — the p=1 reference every parallel variant is
  /// validated against.
  QueryHits search(const ProteinDatabase& db,
                   std::span<const Spectrum> queries) const;

  /// Extract final per-query hit lists (best-first) from the running tops.
  QueryHits finalize(std::vector<TopK<Hit>>& tops) const;

  /// A fresh top-τ list per query.
  std::vector<TopK<Hit>> make_tops(std::size_t query_count) const;

 private:
  SearchConfig config_;
};

}  // namespace msp
