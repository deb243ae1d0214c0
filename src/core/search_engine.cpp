#include "core/search_engine.hpp"

#include <algorithm>
#include <exception>
#include <numeric>
#include <optional>
#include <thread>

#include "core/candidate_source.hpp"
#include "mass/digest.hpp"
#include "scoring/hyperscore.hpp"
#include "scoring/shared_peak.hpp"
#include "simmpi/comm.hpp"
#include "util/error.hpp"

namespace msp {

void charge_kernel(sim::Comm& comm, const ShardSearchStats& stats) {
  comm.clock().charge_compute(kernel_cost_seconds(stats, comm.compute_model()));
  comm.bump("candidates", stats.candidates_evaluated);
  comm.bump("prefiltered", stats.candidates_prefiltered);
  comm.bump("offers", stats.hits_offered);
  comm.bump("ions", stats.ions_built);
  comm.bump("postings", stats.postings_scanned);
}

double PreparedQueries::min_mass() const {
  return sorted_masses.empty() ? 0.0 : sorted_masses.front();
}

double PreparedQueries::max_mass() const {
  return sorted_masses.empty() ? 0.0 : sorted_masses.back();
}

SearchEngine::SearchEngine(SearchConfig config) : config_(config) {
  MSP_CHECK_MSG(config_.tolerance_da > 0.0, "tolerance must be positive");
  MSP_CHECK_MSG(config_.tau >= 1, "tau must be >= 1");
  MSP_CHECK_MSG(config_.min_candidate_length >= 2,
                "candidates must have >= 2 residues (fragmentable)");
  MSP_CHECK_MSG(config_.max_candidate_length >= config_.min_candidate_length,
                "candidate length bounds inverted");
  MSP_CHECK_MSG(config_.open_window_da >= 0.0,
                "open window must be non-negative");
  if (config_.open_search())
    MSP_CHECK_MSG(config_.min_fragment_votes >= 1,
                  "open search requires a vote gate of at least 1 (a "
                  "zero-vote candidate is invisible to the fragment index)");
}

PreparedQueries SearchEngine::prepare(std::span<const Spectrum> queries) const {
  PreparedQueries prepared;
  prepared.spectra.reserve(queries.size());
  prepared.contexts.reserve(queries.size());
  prepared.masses.reserve(queries.size());
  // Each query contributes one (mass, query) search entry per parent-mass
  // hypothesis: just the reported charge by default, or one per charge in
  // charge_hypotheses when alternate-charge search is on.
  std::vector<std::pair<double, std::uint32_t>> entries;
  for (std::uint32_t i = 0; i < queries.size(); ++i) {
    const Spectrum& raw = queries[i];
    Spectrum cleaned = preprocess(raw, config_.preprocess);
    prepared.masses.push_back(cleaned.parent_mass());
    if (config_.try_alternate_charges) {
      for (int z : config_.charge_hypotheses) {
        MSP_CHECK_MSG(z >= 1, "charge hypotheses must be >= 1");
        entries.emplace_back(mass_from_mz(raw.precursor_mz(), z), i);
      }
    } else {
      entries.emplace_back(cleaned.parent_mass(), i);
    }
    prepared.contexts.emplace_back(cleaned, config_.bin_width);
    // Xcorr folds its 151-offset background into the query once, here, so
    // every driver and the serve path (all of which funnel through
    // prepare()) share one per-query build.
    if (config_.model == ScoreModel::kXcorr)
      prepared.contexts.back().enable_xcorr();
    prepared.spectra.push_back(std::move(cleaned));
  }
  std::sort(entries.begin(), entries.end());
  prepared.order.reserve(entries.size());
  prepared.sorted_masses.reserve(entries.size());
  for (const auto& [mass, index] : entries) {
    prepared.sorted_masses.push_back(mass);
    prepared.order.push_back(index);
  }
  return prepared;
}

std::vector<double> SearchEngine::hypothesis_masses(
    const Spectrum& query) const {
  std::vector<double> masses;
  if (config_.try_alternate_charges) {
    masses.reserve(config_.charge_hypotheses.size());
    for (const int z : config_.charge_hypotheses) {
      MSP_CHECK_MSG(z >= 1, "charge hypotheses must be >= 1");
      masses.push_back(mass_from_mz(query.precursor_mz(), z));
    }
  } else {
    masses.push_back(query.parent_mass());
  }
  return masses;
}

double SearchEngine::score_candidate(const QueryContext& context,
                                     std::string_view peptide) const {
  static thread_local IonLadder ladder;
  build_ion_ladder(fragment_ions(peptide), config_.bin_width, ladder);
  return score_candidate(context, peptide, ladder);
}

double SearchEngine::score_candidate(const QueryContext& context,
                                     std::string_view peptide,
                                     const IonLadder& ladder) const {
  switch (config_.model) {
    case ScoreModel::kLikelihood: {
      const double model_score = likelihood_ratio(context, ladder);
      if (config_.library != nullptr) {
        if (const Spectrum* entry = config_.library->find(peptide)) {
          // Hybrid evidence: the candidate explains the query if EITHER its
          // measured consensus pattern or the generic b/y model does —
          // library information can only strengthen a candidate.
          return std::max(model_score,
                          likelihood_ratio_library(context, *entry));
        }
      }
      return model_score;
    }
    case ScoreModel::kHyperscore:
      return hyperscore(context.binned(), ladder);
    case ScoreModel::kSharedPeak:
      return static_cast<double>(shared_peak_count(context.binned(), ladder));
    case ScoreModel::kXcorr: {
      const XcorrContext* x = context.xcorr();
      MSP_CHECK_MSG(x != nullptr,
                    "xcorr scoring requires a query context prepared under "
                    "ScoreModel::kXcorr (QueryContext::enable_xcorr)");
      return xcorr(*x, ladder);
    }
  }
  throw InvalidArgument("unknown score model");
}

namespace {

/// One candidate as the score step sees it: its residues plus the identity
/// a Hit carries. Index entries and ring records both map onto it.
struct CandidateView {
  std::string_view peptide;
  std::string_view protein_id;
  std::uint32_t offset;
  std::uint32_t length;
  FragmentEnd end;
  double mass;
};

CandidateView view_of(const ShardView& shard, const IndexedCandidate& entry) {
  const ProteinView& protein = shard.proteins[entry.protein];
  return {protein.residues.substr(entry.offset, entry.length), protein.id,
          entry.offset, entry.length, entry.end, entry.mass};
}

CandidateView view_of(const CandidateRecord& record) {
  const std::string_view id(record.protein_id, sizeof(record.protein_id));
  return {std::string_view(record.peptide, record.length),
          id.substr(0, id.find('\0')), record.offset, record.length,
          static_cast<FragmentEnd>(record.end), record.mass};
}

/// Score one (candidate, hypothesis) pair over the candidate's built ion
/// ladder — the one score step every kernel path runs. `gate` is the
/// shared-peak screen (0 = none): a pair sharing fewer peaks counts as
/// prefiltered and is never fully scored, and under kSharedPeak the screen
/// already IS the score. Then: count the evaluation, apply the cutoff,
/// count the offer before the top-τ admission test (so the counter, and the
/// virtual clock built on it, is independent of visit order), and skip a
/// strictly worse score on a full list before paying for the Hit.
void score_pair(const SearchEngine& engine, const QueryContext& context,
                const IonLadder& ladder, const CandidateView& candidate,
                std::size_t gate, TopK<Hit>& top, ShardSearchStats& stats) {
  const SearchConfig& config = engine.config();
  double score;
  if (gate > 0) {
    const std::size_t shared = shared_peak_count(context.binned(), ladder);
    if (shared < gate) {
      ++stats.candidates_prefiltered;
      return;
    }
    score = config.model == ScoreModel::kSharedPeak
                ? static_cast<double>(shared)
                : engine.score_candidate(context, candidate.peptide, ladder);
  } else {
    score = engine.score_candidate(context, candidate.peptide, ladder);
  }
  ++stats.candidates_evaluated;
  if (score < config.score_cutoff) return;
  ++stats.hits_offered;
  if (top.full() && score < top.cutoff()) return;
  Hit hit;
  hit.score = score;
  hit.protein_id = std::string(candidate.protein_id);
  hit.offset = candidate.offset;
  hit.length = candidate.length;
  hit.end = candidate.end;
  hit.mass = candidate.mass;
  hit.peptide = std::string(candidate.peptide);
  top.offer(hit);
}

/// The shared-peak gate of a merge-joined pair: narrow search screens with
/// the prefilter; open search (the record-band form) applies the vote gate
/// both CandidateSources apply.
std::size_t pair_gate(const SearchConfig& config) {
  if (config.open_search()) return config.vote_gate();
  return config.prefilter ? config.prefilter_min_shared_peaks : 0;
}

/// Run `block(first, last, tops, stats, per_query)` over the item range
/// [first, last): inline when one thread suffices, else over `threads`
/// contiguous blocks, one std::thread each with fully private outputs,
/// merged in fixed thread order. The final lists depend only on the
/// multiset of offers (TopK's total order), and every counter is a sum over
/// per-item work — both partition-invariant — so any thread count produces
/// identical hits and counters.
template <typename Block>
ShardSearchStats fan_out(const SearchEngine& engine, std::size_t threads,
                         std::size_t first, std::size_t last,
                         std::span<TopK<Hit>> tops,
                         std::vector<std::uint64_t>* per_query_candidates,
                         const Block& block) {
  ShardSearchStats stats;
  const std::size_t items = last - first;
  threads = std::clamp<std::size_t>(threads, 1, items);
  if (threads <= 1) {
    block(first, last, tops, stats, per_query_candidates);
    return stats;
  }

  struct ThreadState {
    std::vector<TopK<Hit>> tops;
    ShardSearchStats stats;
    std::vector<std::uint64_t> per_query;
    std::exception_ptr error;
  };
  std::vector<ThreadState> states(threads);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    ThreadState& state = states[t];
    state.tops = engine.make_tops(tops.size());
    if (per_query_candidates) state.per_query.assign(tops.size(), 0);
    const std::size_t block_first = first + items * t / threads;
    const std::size_t block_last = first + items * (t + 1) / threads;
    pool.emplace_back([&, block_first, block_last, t] {
      ThreadState& mine = states[t];
      try {
        block(block_first, block_last, mine.tops, mine.stats,
              per_query_candidates ? &mine.per_query : nullptr);
      } catch (...) {
        mine.error = std::current_exception();
      }
    });
  }
  for (std::thread& worker : pool) worker.join();
  for (ThreadState& state : states)
    if (state.error) std::rethrow_exception(state.error);

  for (const ThreadState& state : states) {
    for (std::size_t q = 0; q < tops.size(); ++q) tops[q].merge(state.tops[q]);
    stats += state.stats;
    if (per_query_candidates)
      for (std::size_t q = 0; q < state.per_query.size(); ++q)
        (*per_query_candidates)[q] += state.per_query[q];
  }
  return stats;
}

/// The candidate-centric kernel over a mass-ascending candidate span: trim
/// the span to the query envelope, then merge-join it against the sorted
/// query hypotheses. A hypothesis m accepts candidate masses
/// [m − window_below, m + window_above], so from the candidate side a
/// candidate of mass M matches hypotheses [M − window_above,
/// M + window_below] — both bounds exactly tolerance_da in narrow mode.
/// Both sequences ascend, so the hypothesis window only slides forward; its
/// bounds use the reference kernel's predicates (>= M − above,
/// <= M + below). A matched candidate's ions are built once, on its first
/// matching hypothesis, and shared by every hypothesis (and screen) it
/// reaches. A candidate with an empty window gallops to the next one that
/// can reach a hypothesis, so a sparse join reads O(log gap) masses per
/// gap. `view` maps a span element to its CandidateView; the trimmed range
/// fans out over `threads`.
template <typename Candidate, typename View>
ShardSearchStats merge_join(const SearchEngine& engine,
                            std::span<const Candidate> candidates,
                            const PreparedQueries& queries,
                            std::span<TopK<Hit>> tops,
                            std::vector<std::uint64_t>* per_query_candidates,
                            std::size_t threads, const View& view) {
  const SearchConfig& config = engine.config();
  const double below = config.window_below();
  const double above = config.window_above();
  const std::size_t gate = pair_gate(config);
  const std::vector<double>& sorted = queries.sorted_masses;

  const double query_mass_floor = queries.min_mass() - below;
  const double query_mass_ceil = queries.max_mass() + above;
  const auto by_mass = [](const Candidate& candidate, double mass) {
    return candidate.mass < mass;
  };
  const auto within_ceil = [query_mass_ceil](const Candidate& candidate) {
    return candidate.mass <= query_mass_ceil;
  };
  const auto begin = candidates.begin();
  const std::size_t first = static_cast<std::size_t>(
      std::lower_bound(begin, candidates.end(), query_mass_floor, by_mass) -
      begin);
  const std::size_t last = static_cast<std::size_t>(
      std::partition_point(begin + static_cast<std::ptrdiff_t>(first),
                           candidates.end(), within_ceil) -
      begin);
  if (first >= last) return {};

  // The first candidate in (from, end) that can match hypothesis mass m,
  // or `end`: candidates[from] cannot. It tests the kernel's own predicate
  // m <= M + below, which is monotone in M, by exponential probing and then
  // a binary search inside the last probe step, so it costs O(log gap) and
  // a dense join pays one test per candidate.
  const auto next_reaching = [&](std::size_t from, std::size_t end, double m) {
    const auto misses = [m, below](const Candidate& candidate) {
      return !(m <= candidate.mass + below);
    };
    std::size_t probe = from + 1;
    for (std::size_t step = 1; probe < end && misses(candidates[probe]);
         step *= 2) {
      from = probe;
      probe = from + step;
    }
    probe = std::min(probe, end);
    return static_cast<std::size_t>(
        std::partition_point(begin + static_cast<std::ptrdiff_t>(from + 1),
                             begin + static_cast<std::ptrdiff_t>(probe),
                             misses) -
        begin);
  };

  const auto join = [&](std::size_t block_first, std::size_t block_last,
                        std::span<TopK<Hit>> block_tops,
                        ShardSearchStats& stats,
                        std::vector<std::uint64_t>* per_query) {
    std::size_t lo = static_cast<std::size_t>(
        std::lower_bound(sorted.begin(), sorted.end(),
                         candidates[block_first].mass - above) -
        sorted.begin());
    std::size_t hi = lo;
    FragmentIonWorkspace workspace;

    for (std::size_t e = block_first; e < block_last; ++e) {
      const double mass = candidates[e].mass;
      while (lo < sorted.size() && sorted[lo] < mass - above) ++lo;
      if (hi < lo) hi = lo;
      while (hi < sorted.size() && sorted[hi] <= mass + below) ++hi;
      if (lo == hi) {
        // An empty window: every hypothesis before hi lies below M − above
        // and sorted[hi] above M + below, so each candidate until the first
        // one reaching sorted[hi] leaves lo and hi where they are and has
        // an empty window too. Jump there, or stop past the last hypothesis.
        if (hi == sorted.size()) break;
        e = next_reaching(e, block_last, sorted[hi]) - 1;
        continue;
      }

      const CandidateView candidate = view(candidates[e]);
      bool built = false;
      for (std::size_t pos = lo; pos < hi; ++pos) {
        const std::uint32_t q = queries.order[pos];
        if (per_query) ++(*per_query)[q];
        if (!built) {
          build_peptide_ladder(candidate.peptide, config.bin_width, workspace);
          built = true;
          ++stats.ions_built;
        }
        score_pair(engine, queries.contexts[q], workspace.ladder, candidate,
                   gate, block_tops[q], stats);
      }
    }
  };
  return fan_out(engine, threads, first, last, tops, per_query_candidates,
                 join);
}

/// The query-centric open-search kernel behind search_shard(): each
/// hypothesis windows [m − window_below, m + window_above] of the index
/// (one contiguous ordinal range, since entries are mass-ascending), a
/// CandidateSource gates the window down to candidates with enough matched
/// ions, and only survivors are fully scored. `shard`'s entries have
/// already been checked against the config by the caller; the hypothesis
/// range fans out.
ShardSearchStats search_open(const SearchEngine& engine,
                             const ShardView& shard,
                             const PreparedQueries& queries,
                             std::span<TopK<Hit>> tops,
                             std::vector<std::uint64_t>* per_query_candidates) {
  const SearchConfig& config = engine.config();

  // Source selection: kAuto uses the shard's fragment index when it has
  // one (the serial engine supplies none — exhaustive fallback);
  // kFragmentIndex builds one in place when absent; kMassWindow forces
  // exhaustive enumeration.
  const FragmentView* fragment =
      shard.fragment.has_value() ? &*shard.fragment : nullptr;
  FragmentIndex local_fragment;
  if (config.candidate_source == CandidateSourceKind::kMassWindow) {
    fragment = nullptr;
  } else if (fragment == nullptr &&
             config.candidate_source == CandidateSourceKind::kFragmentIndex) {
    local_fragment = FragmentIndex::build(shard.proteins, shard.entries,
                                          shard.params, config.bin_width);
    fragment = &local_fragment.view();
  }
  if (fragment != nullptr) {
    MSP_CHECK_MSG(
        fragment->params ==
            (FragmentIndexParams{shard.params, config.bin_width}),
        "fragment index was built under different parameters than this "
        "engine's config");
    MSP_CHECK_MSG(fragment->candidate_count == shard.entries.size(),
                  "fragment index does not cover this candidate index");
  }

  const std::size_t hypotheses = queries.sorted_masses.size();
  if (hypotheses == 0 || shard.entries.empty()) return {};

  // The query-side half of the inverted lookup, shared read-only across the
  // fan-out. Skipped entirely on the exhaustive path.
  std::vector<std::vector<std::uint32_t>> occupied;
  if (fragment != nullptr) {
    occupied.reserve(queries.contexts.size());
    for (const QueryContext& context : queries.contexts)
      occupied.push_back(occupied_bins(context.binned()));
  }

  const double below = config.window_below();
  const double above = config.window_above();
  const std::span<const IndexedCandidate> entries = shard.entries;
  const std::vector<double>& sorted = queries.sorted_masses;
  const auto entry_below = [](const IndexedCandidate& entry, double mass) {
    return entry.mass < mass;
  };
  const auto entry_above = [](double mass, const IndexedCandidate& entry) {
    return mass < entry.mass;
  };

  const auto block = [&](std::size_t first, std::size_t last,
                         std::span<TopK<Hit>> block_tops,
                         ShardSearchStats& stats,
                         std::vector<std::uint64_t>* per_query) {
    // Per-thread source scratch: vote accumulators must not be shared.
    MassWindowCandidateSource window_source(shard, config.vote_gate());
    std::optional<FragmentIndexCandidateSource> index_source;
    if (fragment != nullptr)
      index_source.emplace(*fragment, config.vote_gate());
    CandidateSource& source =
        fragment != nullptr ? static_cast<CandidateSource&>(*index_source)
                            : static_cast<CandidateSource&>(window_source);
    const bool prebuilt = source.ions_prebuilt();

    FragmentIonWorkspace workspace;
    std::vector<std::uint32_t> survivors;

    for (std::size_t k = first; k < last; ++k) {
      const double mass = sorted[k];
      const std::uint32_t q = queries.order[k];
      const std::size_t lo = static_cast<std::size_t>(
          std::lower_bound(entries.begin(), entries.end(), mass - below,
                           entry_below) -
          entries.begin());
      const std::size_t hi = static_cast<std::size_t>(
          std::upper_bound(entries.begin() + static_cast<std::ptrdiff_t>(lo),
                           entries.end(), mass + above, entry_above) -
          entries.begin());
      // The Fig. 1b measurement stays "candidates in the precursor window" —
      // identical for both sources (it is a property of the window alone).
      if (per_query) (*per_query)[q] += hi - lo;
      if (lo == hi) continue;

      source.collect(queries.contexts[q],
                     fragment != nullptr
                         ? std::span<const std::uint32_t>(occupied[q])
                         : std::span<const std::uint32_t>(),
                     lo, hi, survivors, stats);

      for (const std::uint32_t c : survivors) {
        const CandidateView candidate = view_of(shard, entries[c]);
        build_peptide_ladder(candidate.peptide, config.bin_width, workspace);
        // The exhaustive source already built (and charged) every inspected
        // candidate's ions; the indexed source only ever builds survivors'.
        if (!prebuilt) ++stats.ions_built;
        // Survivors already passed the source's vote gate: no second screen.
        score_pair(engine, queries.contexts[q], workspace.ladder, candidate, 0,
                   block_tops[q], stats);
      }
    }
  };
  return fan_out(engine, config.kernel_threads, 0, hypotheses, tops,
                 per_query_candidates, block);
}

}  // namespace

ShardSearchStats SearchEngine::search_shard(
    const ProteinDatabase& shard, const PreparedQueries& queries,
    std::span<TopK<Hit>> tops, std::vector<std::uint64_t>* per_query_candidates,
    const CandidateIndex* index, const FragmentIndex* fragment) const {
  MSP_CHECK_MSG(tops.size() == queries.size(),
                "tops arity must match query arity");
  if (queries.size() == 0 || shard.proteins.empty()) return {};
  CandidateIndex local;
  if (index == nullptr) {
    // Clipped to the envelope these queries need: it holds every
    // candidate any kernel path can score.
    local = CandidateIndex::build(
        shard, config_,
        MassEnvelope{queries.min_mass(), queries.max_mass(),
                     config_.window_below(), config_.window_above()});
    index = &local;
  }
  return search_shard(ShardView::of(shard, *index, fragment), queries, tops,
                      per_query_candidates);
}

ShardSearchStats SearchEngine::search_shard(
    const ShardView& shard, const PreparedQueries& queries,
    std::span<TopK<Hit>> tops,
    std::vector<std::uint64_t>* per_query_candidates) const {
  MSP_CHECK_MSG(tops.size() == queries.size(),
                "tops arity must match query arity");
  if (queries.size() == 0 || shard.proteins.empty()) return {};

  // The envelope these queries need: entries clipped for it hold every
  // candidate any kernel path below can score.
  const MassEnvelope needed{queries.min_mass(), queries.max_mass(),
                            config_.window_below(), config_.window_above()};
  MSP_CHECK_MSG(shard.params == CandidateIndexParams::from(config_),
                "candidate index was built under different enumeration "
                "parameters than this engine's config");
  MSP_CHECK_MSG(shard.envelope.covers(needed),
                "candidate index was clipped for hypotheses ["
                    << shard.envelope.lo << ", " << shard.envelope.hi
                    << "], which do not cover these queries' [" << needed.lo
                    << ", " << needed.hi << "] under this engine's windows");

  if (config_.open_search())
    return search_open(*this, shard, queries, tops, per_query_candidates);
  const auto view = [&shard](const IndexedCandidate& entry) {
    return view_of(shard, entry);
  };
  return merge_join(*this, shard.entries, queries, tops, per_query_candidates,
                    config_.kernel_threads, view);
}

ShardSearchStats SearchEngine::search_records(
    std::span<const CandidateRecord> records, const PreparedQueries& queries,
    std::span<TopK<Hit>> tops) const {
  MSP_CHECK_MSG(tops.size() == queries.size(),
                "tops arity must match query arity");
  if (queries.size() == 0 || records.empty()) return {};
  const auto view = [](const CandidateRecord& record) {
    return view_of(record);
  };
  return merge_join(*this, records, queries, tops, nullptr, 1, view);
}

ShardSearchStats SearchEngine::search_shard_reference(
    const ProteinDatabase& shard, const PreparedQueries& queries,
    std::span<TopK<Hit>> tops,
    std::vector<std::uint64_t>* per_query_candidates) const {
  MSP_CHECK_MSG(tops.size() == queries.size(),
                "tops arity must match query arity");
  ShardSearchStats stats;
  if (queries.size() == 0 || shard.proteins.empty()) return stats;

  // Candidate-major direction: a candidate of mass M matches hypotheses in
  // [M − window_above, M + window_below] (the below/above swap — see
  // search_records). Narrow mode keeps below == above == tolerance_da.
  const double below = config_.window_below();
  const double above = config_.window_above();
  const double query_mass_floor = queries.min_mass() - below;
  const double query_mass_ceil = queries.max_mass() + above;

  // For one fragment mass, visit all queries whose window contains it.
  auto visit_matches = [&](double mass, std::uint32_t protein_index,
                           std::uint32_t offset, std::uint32_t length,
                           FragmentEnd end) {
    const auto lo = std::lower_bound(queries.sorted_masses.begin(),
                                     queries.sorted_masses.end(), mass - above);
    const auto hi = std::upper_bound(lo, queries.sorted_masses.end(),
                                     mass + below);
    if (lo == hi) return;

    const Protein& protein = shard.proteins[protein_index];
    const std::string_view peptide =
        std::string_view(protein.residues).substr(offset, length);

    for (auto it = lo; it != hi; ++it) {
      const auto sorted_pos =
          static_cast<std::size_t>(it - queries.sorted_masses.begin());
      const std::uint32_t q = queries.order[sorted_pos];
      if (per_query_candidates) ++(*per_query_candidates)[q];
      // Each string-overload scoring call regenerates the candidate's ions
      // from scratch — count those rebuilds so benches can show what the
      // candidate-centric kernel saves.
      if (config_.open_search()) {
        // The identical vote gate both CandidateSource implementations
        // apply — this walk is the oracle for open search too.
        ++stats.ions_built;
        if (shared_peak_count(queries.contexts[q].binned(), peptide) <
            config_.vote_gate()) {
          ++stats.candidates_prefiltered;
          continue;
        }
      } else if (config_.prefilter) {
        ++stats.ions_built;
        if (shared_peak_count(queries.contexts[q].binned(), peptide) <
            config_.prefilter_min_shared_peaks) {
          ++stats.candidates_prefiltered;
          continue;  // the aggressive screen: never fully scored
        }
      }
      ++stats.ions_built;
      const double score = score_candidate(queries.contexts[q], peptide);
      ++stats.candidates_evaluated;
      if (score < config_.score_cutoff) continue;
      Hit hit;
      hit.score = score;
      hit.protein_id = protein.id;
      hit.offset = offset;
      hit.length = length;
      hit.end = end;
      hit.mass = mass;
      hit.peptide = std::string(peptide);
      tops[q].offer(hit);
      ++stats.hits_offered;
    }
  };

  for (std::uint32_t pi = 0; pi < shard.proteins.size(); ++pi) {
    const Protein& protein = shard.proteins[pi];
    const std::size_t len = protein.residues.size();
    if (len < config_.min_candidate_length) continue;
    const FragmentMassIndex index(protein.residues);
    const std::size_t max_k = std::min(len, config_.max_candidate_length);

    if (config_.candidate_mode == CandidateMode::kPrefixSuffix) {
      // Prefix masses grow monotonically in k: stop past the heaviest window.
      for (std::size_t k = config_.min_candidate_length; k <= max_k; ++k) {
        const double mass = index.prefix_mass(k);
        if (mass > query_mass_ceil) break;
        if (mass < query_mass_floor) continue;
        visit_matches(mass, pi, 0, static_cast<std::uint32_t>(k),
                      FragmentEnd::kPrefix);
      }
      for (std::size_t k = config_.min_candidate_length; k <= max_k; ++k) {
        if (k == len) break;  // the full sequence already counted as a prefix
        const double mass = index.suffix_mass(k);
        if (mass > query_mass_ceil) break;
        if (mass < query_mass_floor) continue;
        visit_matches(mass, pi, static_cast<std::uint32_t>(len - k),
                      static_cast<std::uint32_t>(k), FragmentEnd::kSuffix);
      }
    } else {
      // Tryptic extension: enumerate enzymatic peptides; classify termini
      // so prefix/suffix hits stay comparable with the paper mode.
      DigestOptions digest;
      digest.min_length = config_.min_candidate_length;
      digest.max_length = max_k;
      digest.missed_cleavages = config_.candidate_missed_cleavages;
      for (const DigestedPeptide& peptide :
           digest_tryptic(protein.residues, digest)) {
        const double mass = index.prefix_mass(peptide.offset + peptide.length) -
                            index.prefix_mass(peptide.offset) + kWaterMass;
        if (mass < query_mass_floor || mass > query_mass_ceil) continue;
        FragmentEnd end = FragmentEnd::kInternal;
        if (peptide.offset == 0)
          end = FragmentEnd::kPrefix;
        else if (peptide.offset + peptide.length == len)
          end = FragmentEnd::kSuffix;
        visit_matches(mass, pi, static_cast<std::uint32_t>(peptide.offset),
                      static_cast<std::uint32_t>(peptide.length), end);
      }
    }
  }
  return stats;
}

std::vector<TopK<Hit>> SearchEngine::make_tops(std::size_t query_count) const {
  return std::vector<TopK<Hit>>(query_count, TopK<Hit>(config_.tau));
}

QueryHits SearchEngine::finalize(std::vector<TopK<Hit>>& tops) const {
  QueryHits hits;
  hits.reserve(tops.size());
  for (TopK<Hit>& top : tops) hits.push_back(top.sorted());
  return hits;
}

QueryHits SearchEngine::search(const ProteinDatabase& db,
                               std::span<const Spectrum> queries) const {
  const PreparedQueries prepared = prepare(queries);
  std::vector<TopK<Hit>> tops = make_tops(queries.size());
  search_shard(db, prepared, tops);
  return finalize(tops);
}

}  // namespace msp
