// Kernel-equivalence validation for the candidate-centric scoring kernel.
//
// Two independent claims are enforced here. First, the indexed merge-join
// kernel (search_shard) is hit-for-hit and counter-for-counter identical to
// the retained database-walking kernel (search_shard_reference) across every
// candidate mode, prefilter setting and charge-hypothesis setting — scores
// compared bit-exactly, because both paths consume the same sorted ion
// vectors in the same order. Second, intra-rank threading is invisible:
// any kernel_threads setting produces identical hits, identical counters
// and (through the algorithms) byte-identical virtual-time traces, with and
// without an injected fault schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "core/algorithm_a.hpp"
#include "core/candidate_index.hpp"
#include "core/candidate_record.hpp"
#include "core/fragment_index.hpp"
#include "core/packdb.hpp"
#include "core/search_engine.hpp"
#include "dbgen/protein_gen.hpp"
#include "dbgen/query_gen.hpp"
#include "io/fasta.hpp"
#include "scoring/shared_peak.hpp"
#include "simmpi/runtime.hpp"
#include "util/error.hpp"

namespace msp {
namespace {

struct Workload {
  ProteinDatabase db;
  std::string image;
  std::vector<Spectrum> queries;

  Workload() {
    ProteinGenOptions db_options;
    db_options.sequence_count = 50;
    db_options.mean_length = 130;
    db_options.seed = 7717;
    db = generate_proteins(db_options);
    image = to_fasta_string(db);

    QueryGenOptions q_options;
    q_options.query_count = 24;
    q_options.seed = 7718;
    q_options.digest.min_length = 6;
    q_options.digest.max_length = 25;
    queries = spectra_of(generate_queries(db, q_options));
  }
};

const Workload& workload() {
  static const Workload w;
  return w;
}

SearchConfig base_config() {
  SearchConfig config;
  config.tolerance_da = 3.0;
  config.tau = 7;
  config.min_candidate_length = 4;
  config.max_candidate_length = 60;
  config.model = ScoreModel::kLikelihood;
  return config;
}

struct KernelRun {
  QueryHits hits;
  ShardSearchStats stats;
  std::vector<std::uint64_t> per_query;
};

KernelRun run_indexed(const SearchEngine& engine, const ProteinDatabase& db,
                      const PreparedQueries& prepared,
                      const CandidateIndex* index = nullptr,
                      const FragmentIndex* fragment = nullptr) {
  KernelRun run;
  run.per_query.assign(prepared.size(), 0);
  std::vector<TopK<Hit>> tops = engine.make_tops(prepared.size());
  run.stats = engine.search_shard(db, prepared, tops, &run.per_query, index,
                                  fragment);
  run.hits = engine.finalize(tops);
  return run;
}

KernelRun run_view(const SearchEngine& engine, const ShardView& shard,
                   const PreparedQueries& prepared) {
  KernelRun run;
  run.per_query.assign(prepared.size(), 0);
  std::vector<TopK<Hit>> tops = engine.make_tops(prepared.size());
  run.stats = engine.search_shard(shard, prepared, tops, &run.per_query);
  run.hits = engine.finalize(tops);
  return run;
}

KernelRun run_reference(const SearchEngine& engine, const ProteinDatabase& db,
                        const PreparedQueries& prepared) {
  KernelRun run;
  run.per_query.assign(prepared.size(), 0);
  std::vector<TopK<Hit>> tops = engine.make_tops(prepared.size());
  run.stats = engine.search_shard_reference(db, prepared, tops, &run.per_query);
  run.hits = engine.finalize(tops);
  return run;
}

/// Bit-exact hit comparison: the determinism claim is exact equality, not
/// tolerance equality — both kernels sum the same doubles in the same order.
void expect_hits_identical(const QueryHits& got, const QueryHits& want,
                           const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t q = 0; q < want.size(); ++q) {
    ASSERT_EQ(got[q].size(), want[q].size()) << label << " query " << q;
    for (std::size_t h = 0; h < want[q].size(); ++h) {
      const Hit& a = got[q][h];
      const Hit& b = want[q][h];
      EXPECT_EQ(a.score, b.score) << label << " q" << q << " h" << h;
      EXPECT_EQ(a.protein_id, b.protein_id) << label << " q" << q << " h" << h;
      EXPECT_EQ(a.offset, b.offset) << label << " q" << q << " h" << h;
      EXPECT_EQ(a.length, b.length) << label << " q" << q << " h" << h;
      EXPECT_EQ(a.end, b.end) << label << " q" << q << " h" << h;
      EXPECT_EQ(a.peptide, b.peptide) << label << " q" << q << " h" << h;
    }
  }
}

void expect_runs_identical(const KernelRun& got, const KernelRun& want,
                           const std::string& label) {
  expect_hits_identical(got.hits, want.hits, label);
  EXPECT_EQ(got.stats.candidates_evaluated, want.stats.candidates_evaluated)
      << label;
  EXPECT_EQ(got.stats.candidates_prefiltered, want.stats.candidates_prefiltered)
      << label;
  EXPECT_EQ(got.stats.hits_offered, want.stats.hits_offered) << label;
  EXPECT_EQ(got.per_query, want.per_query) << label;
}

// ---------- indexed kernel vs. retained reference ----------

TEST(KernelEquivalence, IndexedMatchesReferenceAcrossConfigs) {
  const Workload& w = workload();
  for (const CandidateMode mode :
       {CandidateMode::kPrefixSuffix, CandidateMode::kTryptic}) {
    for (const bool prefilter : {false, true}) {
      for (const bool alternate : {false, true}) {
        for (const ScoreModel model :
             {ScoreModel::kLikelihood, ScoreModel::kHyperscore,
              ScoreModel::kSharedPeak, ScoreModel::kXcorr}) {
          SearchConfig config = base_config();
          config.candidate_mode = mode;
          config.prefilter = prefilter;
          config.try_alternate_charges = alternate;
          config.model = model;
          const std::string label =
              std::string(mode == CandidateMode::kTryptic ? "tryptic"
                                                          : "prefix/suffix") +
              (prefilter ? "+prefilter" : "") + (alternate ? "+charges" : "") +
              " model=" + std::to_string(static_cast<int>(model));

          const SearchEngine engine(config);
          const PreparedQueries prepared = engine.prepare(w.queries);
          const KernelRun indexed = run_indexed(engine, w.db, prepared);
          const KernelRun reference = run_reference(engine, w.db, prepared);
          expect_runs_identical(indexed, reference, label);
          // The whole point of the candidate-centric kernel: it never
          // generates a candidate's ions more often than the reference.
          EXPECT_LE(indexed.stats.ions_built, reference.stats.ions_built)
              << label;
          EXPECT_LE(indexed.stats.ions_built,
                    indexed.stats.candidates_evaluated +
                        indexed.stats.candidates_prefiltered)
              << label;
        }
      }
    }
  }
}

TEST(KernelEquivalence, AmortizesIonGenerationAcrossChargeHypotheses) {
  const Workload& w = workload();
  SearchConfig config = base_config();
  config.try_alternate_charges = true;  // several hypotheses share candidates
  const SearchEngine engine(config);
  const PreparedQueries prepared = engine.prepare(w.queries);
  const KernelRun run = run_indexed(engine, w.db, prepared);
  ASSERT_GT(run.stats.ions_built, 0u);
  EXPECT_LT(run.stats.ions_built,
            run.stats.candidates_evaluated + run.stats.candidates_prefiltered);
}

TEST(KernelEquivalence, ShippedIndexMatchesLocalBuild) {
  const Workload& w = workload();
  const SearchConfig config = base_config();
  const SearchEngine engine(config);
  const PreparedQueries prepared = engine.prepare(w.queries);

  const CandidateIndex index = CandidateIndex::build(w.db, config);
  ASSERT_FALSE(index.empty());
  const std::vector<char> bytes = pack_shard(w.db, index);

  // The shard image is self-describing and is scored where it sits.
  const ShardView shard = unpack_shard(bytes);
  EXPECT_TRUE(shard.params == index.params());
  ASSERT_EQ(shard.entries.size(), index.size());
  for (std::size_t i = 0; i < index.size(); ++i) {
    const IndexedCandidate& a = shard.entries[i];
    const IndexedCandidate& b = index.entries()[i];
    ASSERT_EQ(a.mass, b.mass) << "entry " << i;
    ASSERT_EQ(a.protein, b.protein) << "entry " << i;
    ASSERT_EQ(a.offset, b.offset) << "entry " << i;
    ASSERT_EQ(a.length, b.length) << "entry " << i;
    ASSERT_EQ(a.end, b.end) << "entry " << i;
  }

  // Searching the shipped image == searching with an internal build.
  const KernelRun shipped = run_view(engine, shard, prepared);
  const KernelRun internal = run_indexed(engine, w.db, prepared);
  expect_runs_identical(shipped, internal, "shipped index");
  EXPECT_EQ(shipped.stats.ions_built, internal.stats.ions_built);

  // The image carries the shard's proteins intact.
  ASSERT_EQ(shard.proteins.size(), w.db.proteins.size());
  EXPECT_EQ(shard.proteins.back().id, w.db.proteins.back().id);
  EXPECT_EQ(shard.proteins.back().residues, w.db.proteins.back().residues);
}

// The image view and the owned index it was packed from are one kernel
// input: identical hits, every ShardSearchStats counter and per-query
// counts over the whole config matrix, narrow and open, with and without
// the fragment index.
TEST(KernelEquivalence, ImageViewMatchesOwnedIndexes) {
  const Workload& w = workload();
  for (const CandidateMode mode :
       {CandidateMode::kPrefixSuffix, CandidateMode::kTryptic}) {
    for (const bool prefilter : {false, true}) {
      for (const bool alternate : {false, true}) {
        for (const ScoreModel model :
             {ScoreModel::kLikelihood, ScoreModel::kHyperscore,
              ScoreModel::kSharedPeak, ScoreModel::kXcorr}) {
          for (const int form : {0, 1, 2}) {  // narrow, open, open+fragment
            SearchConfig config = base_config();
            config.candidate_mode = mode;
            config.prefilter = prefilter;
            config.try_alternate_charges = alternate;
            config.model = model;
            if (form > 0) {
              config.open_window_da = 40.0;
              config.min_fragment_votes = 2;
            }
            const std::string label =
                std::string(mode == CandidateMode::kTryptic
                                ? "tryptic"
                                : "prefix/suffix") +
                (prefilter ? "+prefilter" : "") +
                (alternate ? "+charges" : "") +
                " model=" + std::to_string(static_cast<int>(model)) +
                " form=" + std::to_string(form);

            const SearchEngine engine(config);
            const PreparedQueries prepared = engine.prepare(w.queries);
            const CandidateIndex index = CandidateIndex::build(w.db, config);
            const bool with_fragment = form == 2;
            const FragmentIndex fragment =
                with_fragment
                    ? FragmentIndex::build(w.db, index, config.bin_width)
                    : FragmentIndex{};
            const std::vector<char> bytes =
                with_fragment
                    ? pack_shard(w.db, index, config.bin_width).bytes
                    : pack_shard(w.db, index);
            const KernelRun viewed =
                run_view(engine, unpack_shard(bytes), prepared);
            const KernelRun owned = run_indexed(
                engine, w.db, prepared, &index,
                with_fragment ? &fragment : nullptr);
            expect_runs_identical(viewed, owned, label);
            EXPECT_EQ(viewed.stats.ions_built, owned.stats.ions_built)
                << label;
            EXPECT_EQ(viewed.stats.postings_scanned,
                      owned.stats.postings_scanned)
                << label;
            if (with_fragment) {
              EXPECT_GT(viewed.stats.postings_scanned, 0u) << label;
            }
          }
        }
      }
    }
  }
}

// The image's arrays sit wherever its strings leave them: copied to every
// offset 0–7 of a larger buffer, it still validates, views the same
// entries and postings, and searches identically.
TEST(KernelEquivalence, ImageAtAnyOffsetSearchesIdentically) {
  const Workload& w = workload();
  SearchConfig config = base_config();
  config.open_window_da = 40.0;
  config.min_fragment_votes = 2;
  const SearchEngine engine(config);
  const PreparedQueries prepared = engine.prepare(w.queries);
  const CandidateIndex index = CandidateIndex::build(w.db, config);
  const FragmentIndex fragment =
      FragmentIndex::build(w.db, index, config.bin_width);
  const std::vector<char> bytes =
      pack_shard(w.db, index, config.bin_width).bytes;
  const KernelRun owned =
      run_indexed(engine, w.db, prepared, &index, &fragment);
  ASSERT_GT(owned.stats.postings_scanned, 0u);

  for (std::size_t shift = 0; shift < 8; ++shift) {
    std::vector<char> storage(bytes.size() + 8);
    std::copy(bytes.begin(), bytes.end(),
              storage.begin() + static_cast<std::ptrdiff_t>(shift));
    const std::span<const char> image(storage.data() + shift, bytes.size());
    const ShardView view = unpack_shard(image);
    ASSERT_EQ(view.entries.size(), index.size()) << "offset " << shift;
    ASSERT_TRUE(view.fragment.has_value()) << "offset " << shift;
    EXPECT_EQ(*view.fragment, fragment.view()) << "offset " << shift;
    const KernelRun viewed = run_view(engine, view, prepared);
    expect_runs_identical(viewed, owned, "offset " + std::to_string(shift));
    EXPECT_EQ(viewed.stats.postings_scanned, owned.stats.postings_scanned);
    EXPECT_EQ(viewed.stats.ions_built, owned.stats.ions_built);
  }
}

TEST(KernelEquivalence, RejectsIndexBuiltUnderDifferentParams) {
  const Workload& w = workload();
  SearchConfig tryptic = base_config();
  tryptic.candidate_mode = CandidateMode::kTryptic;
  const CandidateIndex wrong = CandidateIndex::build(w.db, tryptic);

  const SearchEngine engine(base_config());
  const PreparedQueries prepared = engine.prepare(w.queries);
  std::vector<TopK<Hit>> tops = engine.make_tops(prepared.size());
  EXPECT_THROW(engine.search_shard(w.db, prepared, tops, nullptr, &wrong),
               InvalidArgument);
}

// ---------- record-band kernel vs. index kernel and reference ----------

/// The whole shard as one mass-sorted record band — what a serving-ring
/// rank holds when its band covers every candidate mass.
std::vector<CandidateRecord> whole_shard_band(const ProteinDatabase& db,
                                              const SearchConfig& config) {
  std::vector<CandidateRecord> band = enumerate_candidate_records(
      db, config, 0.0, std::numeric_limits<double>::infinity());
  std::sort(band.begin(), band.end(), candidate_record_less);
  return band;
}

KernelRun run_records(const SearchEngine& engine,
                      const std::vector<CandidateRecord>& band,
                      const PreparedQueries& prepared) {
  KernelRun run;
  std::vector<TopK<Hit>> tops = engine.make_tops(prepared.size());
  run.stats = engine.search_records(band, prepared, tops);
  run.hits = engine.finalize(tops);
  return run;
}

TEST(KernelEquivalence, RecordBandMatchesIndexAndReference) {
  const Workload& w = workload();
  enum class Mode { kNarrow, kPrefilter, kCharges, kOpen };
  for (const Mode mode :
       {Mode::kNarrow, Mode::kPrefilter, Mode::kCharges, Mode::kOpen}) {
    for (const ScoreModel model :
         {ScoreModel::kLikelihood, ScoreModel::kHyperscore,
          ScoreModel::kSharedPeak, ScoreModel::kXcorr}) {
      SearchConfig config = base_config();
      config.model = model;
      config.prefilter = mode == Mode::kPrefilter;
      config.try_alternate_charges = mode == Mode::kCharges;
      if (mode == Mode::kOpen) {
        config.open_window_da = 60.0;
        config.min_fragment_votes = 3;
      }
      const std::string label = "mode " +
                                std::to_string(static_cast<int>(mode)) +
                                " model=" +
                                std::to_string(static_cast<int>(model));

      const SearchEngine engine(config);
      const PreparedQueries prepared = engine.prepare(w.queries);
      const std::vector<CandidateRecord> band = whole_shard_band(w.db, config);
      ASSERT_FALSE(band.empty()) << label;
      const KernelRun records = run_records(engine, band, prepared);
      const KernelRun indexed = run_indexed(engine, w.db, prepared);
      const KernelRun reference = run_reference(engine, w.db, prepared);
      expect_hits_identical(records.hits, indexed.hits, label + " vs index");
      expect_hits_identical(records.hits, reference.hits,
                            label + " vs reference");
      std::size_t total_hits = 0;
      for (const std::vector<Hit>& hits : records.hits)
        total_hits += hits.size();
      EXPECT_GT(total_hits, 0u) << label;
      if (mode == Mode::kOpen) continue;
      // Narrow windows: the record band and the index are two spans of the
      // same candidates, so the merge-join does the same work on both.
      EXPECT_EQ(records.stats.candidates_evaluated,
                indexed.stats.candidates_evaluated)
          << label;
      EXPECT_EQ(records.stats.candidates_prefiltered,
                indexed.stats.candidates_prefiltered)
          << label;
      EXPECT_EQ(records.stats.hits_offered, indexed.stats.hits_offered)
          << label;
      EXPECT_EQ(records.stats.ions_built, indexed.stats.ions_built) << label;
    }
  }
}

// ---------- the merge-join on sparse and edge inputs ----------

// The merge-join skips a run of candidates whose windows are empty by
// galloping to the next one that can reach a hypothesis. These inputs place
// hypotheses where that skip matters — long gaps, outside the band, exactly
// on rounded window edges, over duplicate masses, under open windows — and
// hold the join to the reference's hits and to a linear scan's counters.

/// `base`'s query contexts under hand-placed hypothesis masses: entry k is
/// mass `masses[k]` (sorted here) for query k mod size.
PreparedQueries with_hypotheses(const PreparedQueries& base,
                                std::vector<double> masses) {
  PreparedQueries prepared = base;
  std::sort(masses.begin(), masses.end());
  prepared.sorted_masses = masses;
  prepared.order.clear();
  for (std::size_t k = 0; k < masses.size(); ++k)
    prepared.order.push_back(static_cast<std::uint32_t>(k % base.size()));
  return prepared;
}

/// The oracle for the join's counters: every (candidate, hypothesis) pair
/// in the query envelope whose window predicates hold, found by testing all
/// pairs, with the score step's counting and one ion build per candidate
/// that matches anything.
ShardSearchStats linear_join_stats(const SearchEngine& engine,
                                   const std::vector<CandidateRecord>& band,
                                   const PreparedQueries& prepared) {
  const SearchConfig& config = engine.config();
  const double below = config.window_below();
  const double above = config.window_above();
  const std::size_t gate =
      config.open_search()
          ? config.vote_gate()
          : (config.prefilter ? config.prefilter_min_shared_peaks : 0);
  ShardSearchStats stats;
  for (const CandidateRecord& record : band) {
    const double mass = record.mass;
    if (mass < prepared.min_mass() - below ||
        mass > prepared.max_mass() + above)
      continue;
    const std::string_view peptide(record.peptide, record.length);
    bool built = false;
    for (std::size_t k = 0; k < prepared.sorted_masses.size(); ++k) {
      const double m = prepared.sorted_masses[k];
      if (!(m >= mass - above && m <= mass + below)) continue;
      if (!built) ++stats.ions_built;
      built = true;
      const QueryContext& context = prepared.contexts[prepared.order[k]];
      if (gate > 0 && shared_peak_count(context.binned(), peptide) < gate) {
        ++stats.candidates_prefiltered;
        continue;
      }
      ++stats.candidates_evaluated;
      if (engine.score_candidate(context, peptide) >= config.score_cutoff)
        ++stats.hits_offered;
    }
  }
  return stats;
}

void expect_stats_equal(const ShardSearchStats& got,
                        const ShardSearchStats& want,
                        const std::string& label) {
  EXPECT_EQ(got.candidates_evaluated, want.candidates_evaluated) << label;
  EXPECT_EQ(got.candidates_prefiltered, want.candidates_prefiltered) << label;
  EXPECT_EQ(got.hits_offered, want.hits_offered) << label;
  EXPECT_EQ(got.ions_built, want.ions_built) << label;
}

/// Run search_records and (narrow windows only) search_shard at 1 and 3
/// kernel threads over `db` with hand-placed hypotheses; every run must
/// give the reference's hits and the linear scan's counters. Returns the
/// oracle's evaluated count so a case can assert it exercised something.
std::uint64_t expect_join_matches_oracles(SearchConfig config,
                                          const ProteinDatabase& db,
                                          const std::vector<double>& masses,
                                          const std::string& label) {
  const SearchEngine engine(config);
  const PreparedQueries prepared =
      with_hypotheses(engine.prepare(workload().queries), masses);
  const std::vector<CandidateRecord> band = whole_shard_band(db, config);
  const ShardSearchStats oracle = linear_join_stats(engine, band, prepared);
  const KernelRun reference = run_reference(engine, db, prepared);

  const KernelRun records = run_records(engine, band, prepared);
  expect_hits_identical(records.hits, reference.hits, label + " records");
  expect_stats_equal(records.stats, oracle, label + " records");
  if (config.open_search()) return oracle.candidates_evaluated;
  for (const std::size_t threads : {1, 3}) {
    config.kernel_threads = threads;
    const SearchEngine threaded(config);
    const std::string shard_label =
        label + " shard t=" + std::to_string(threads);
    const KernelRun shard = run_indexed(threaded, db, prepared);
    expect_runs_identical(shard, reference, shard_label);
    expect_stats_equal(shard.stats, oracle, shard_label);
  }
  return oracle.candidates_evaluated;
}

SearchConfig join_config(double tolerance_da, bool prefilter) {
  SearchConfig config = base_config();
  config.tolerance_da = tolerance_da;
  config.prefilter = prefilter;
  return config;
}

TEST(KernelJoin, GallopsAcrossLongGaps) {
  const Workload& w = workload();
  for (const bool prefilter : {false, true}) {
    const SearchConfig config = join_config(0.05, prefilter);
    const std::vector<CandidateRecord> band = whole_shard_band(w.db, config);
    ASSERT_GT(band.size(), 1000u);
    // A few hypotheses, each a thousand-odd records from the next, placed
    // on a record's mass so every one has matches.
    std::vector<double> masses;
    for (std::size_t i = 1; i < 8; ++i)
      masses.push_back(band[band.size() * i / 8].mass);
    const std::uint64_t evaluated = expect_join_matches_oracles(
        config, w.db, masses, prefilter ? "gaps+prefilter" : "gaps");
    if (!prefilter) {
      EXPECT_GE(evaluated, masses.size());
    }
  }
}

TEST(KernelJoin, HypothesesOutsideTheBand) {
  const Workload& w = workload();
  const SearchConfig config = join_config(0.05, false);
  const std::vector<CandidateRecord> band = whole_shard_band(w.db, config);
  const double lightest = band.front().mass;
  const double heaviest = band.back().mass;
  const double middle = band[band.size() / 2].mass;
  // Before the first record and past the last, around one in the middle.
  EXPECT_GT(expect_join_matches_oracles(
                config, w.db,
                {lightest - 400.0, lightest - 1.0, middle, heaviest + 1.0,
                 heaviest + 400.0},
                "around the band"),
            0u);
  // Only outside: nothing matches, nothing is built.
  EXPECT_EQ(expect_join_matches_oracles(config, w.db,
                                        {lightest - 400.0, lightest - 1.0},
                                        "below the band"),
            0u);
  EXPECT_EQ(expect_join_matches_oracles(config, w.db,
                                        {heaviest + 1.0, heaviest + 400.0},
                                        "past the band"),
            0u);
}

TEST(KernelJoin, WindowEdgesExactlyAtRecordMasses) {
  const Workload& w = workload();
  const SearchConfig config = join_config(0.05, false);
  const double below = config.window_below();
  const double above = config.window_above();
  const std::vector<CandidateRecord> band = whole_shard_band(w.db, config);
  // Hypotheses on the rounded edges of the windows of records a few
  // hundred apart: m = M + below is the last hypothesis M reaches, and
  // m = M − above the first; one ulp further out reaches nothing. An anchor
  // far below keeps every edge record inside the query envelope.
  std::vector<double> masses{band.front().mass - 400.0};
  for (std::size_t i = 200; i + 200 < band.size(); i += 250) {
    const double upper = band[i].mass + below;
    const double lower = band[i].mass - above;
    switch ((i / 250) % 3) {
      case 0:
        masses.push_back(upper);
        break;
      case 1:
        masses.push_back(lower);
        break;
      default:
        masses.push_back(std::nextafter(upper, upper + 1.0));
        masses.push_back(std::nextafter(lower, lower - 1.0));
        break;
    }
  }
  ASSERT_GT(masses.size(), 20u);
  EXPECT_GT(expect_join_matches_oracles(config, w.db, masses, "edges"), 0u);

  // Upper edges only on records where the rearranged test M >= m − below
  // disagrees with the kernel's m <= M + below (M + below rounds into the
  // next binade, so it happens just below powers of two): each is a
  // candidate that a join skipping on the rearranged test would miss. The
  // hypotheses stay 8 Da apart, more than a window's 6 Da, so the join
  // reaches each by galloping from an empty window. Such records are rare,
  // so this case searches a larger database.
  ProteinGenOptions large_options;
  large_options.sequence_count = 400;
  large_options.mean_length = 130;
  large_options.seed = 7719;
  const ProteinDatabase large = generate_proteins(large_options);
  const SearchConfig wide = join_config(3.0, false);
  const std::vector<CandidateRecord> wide_band = whole_shard_band(large, wide);
  std::vector<double> rounding{wide_band.front().mass - 400.0};
  for (const CandidateRecord& record : wide_band) {
    const double upper = record.mass + wide.window_below();
    if (upper - wide.window_below() > record.mass &&
        upper > rounding.back() + 8.0)
      rounding.push_back(upper);
  }
  ASSERT_GE(rounding.size(), 4u);
  EXPECT_GE(expect_join_matches_oracles(wide, large, rounding,
                                        "rounded upper edges"),
            rounding.size() - 1);
}

TEST(KernelJoin, RunsOfDuplicateMasses) {
  const Workload& w = workload();
  // Three copies of a few proteins under new ids: every candidate of those
  // proteins becomes a run of three records of one mass.
  ProteinDatabase db = w.db;
  for (std::size_t copy = 0; copy < 2; ++copy)
    for (std::size_t p = 0; p < 6; ++p) {
      Protein twin = w.db.proteins[p];
      twin.id = "dup" + std::to_string(copy) + "_" + std::to_string(p);
      db.proteins.push_back(std::move(twin));
    }
  for (const bool prefilter : {false, true}) {
    const SearchConfig config = join_config(0.05, prefilter);
    const std::vector<CandidateRecord> band = whole_shard_band(db, config);
    // Duplicated record masses, each hypothesis twice over (two queries
    // sharing a hypothesis mass), spread across the band.
    std::vector<double> masses;
    std::size_t runs = 0;
    for (std::size_t i = 0; i + 2 < band.size() && runs < 10; i += 37) {
      if (band[i].mass != band[i + 2].mass) continue;
      masses.push_back(band[i].mass);
      masses.push_back(band[i].mass);
      ++runs;
    }
    ASSERT_GE(runs, 3u);
    const std::uint64_t evaluated = expect_join_matches_oracles(
        config, db, masses, prefilter ? "duplicates+prefilter" : "duplicates");
    if (!prefilter) {
      EXPECT_GE(evaluated, 3 * masses.size());
    }
  }
}

TEST(KernelJoin, OpenWindowsMatchReference) {
  const Workload& w = workload();
  SearchConfig config = join_config(0.05, false);
  config.open_window_da = 60.0;
  config.min_fragment_votes = 3;
  const std::vector<CandidateRecord> band = whole_shard_band(w.db, config);
  // Sparse hypotheses whose ±60 Da windows are still far apart, plus the
  // real queries' hypotheses (dense, overlapping windows).
  std::vector<double> masses;
  for (std::size_t i = 1; i < 6; ++i)
    masses.push_back(band[band.size() * i / 6].mass + 0.5);
  EXPECT_GT(expect_join_matches_oracles(config, w.db, masses, "open sparse"),
            0u);
  const SearchEngine engine(config);
  EXPECT_GT(expect_join_matches_oracles(
                config, w.db, engine.prepare(w.queries).sorted_masses,
                "open dense"),
            0u);
}

// ---------- kernel_threads determinism matrix ----------

TEST(KernelThreads, AnyThreadCountProducesIdenticalResults) {
  const Workload& w = workload();
  // Exercise the threaded merge under both a plain config and the most
  // stateful one (prefilter + alternate charges → shared candidates and
  // both counter paths).
  for (const bool stateful : {false, true}) {
    SearchConfig config = base_config();
    config.prefilter = stateful;
    config.try_alternate_charges = stateful;

    KernelRun baseline;
    for (const std::size_t threads : {1, 2, 4, 8}) {
      config.kernel_threads = threads;
      const SearchEngine engine(config);
      const PreparedQueries prepared = engine.prepare(w.queries);
      const KernelRun run = run_indexed(engine, w.db, prepared);
      if (threads == 1) {
        baseline = run;
        continue;
      }
      const std::string label =
          "kernel_threads=" + std::to_string(threads) +
          (stateful ? " (prefilter+charges)" : "");
      expect_runs_identical(run, baseline, label);
      EXPECT_EQ(run.stats.ions_built, baseline.stats.ions_built) << label;
    }
  }
}

TEST(KernelThreads, ParallelTraceIsThreadCountInvariant) {
  const Workload& w = workload();
  SearchConfig config = base_config();
  sim::Runtime runtime(3);
  runtime.enable_tracing();

  config.kernel_threads = 1;
  const ParallelRunResult serial_kernel =
      run_algorithm_a(runtime, w.image, w.queries, config);
  config.kernel_threads = 4;
  const ParallelRunResult threaded_kernel =
      run_algorithm_a(runtime, w.image, w.queries, config);

  expect_hits_identical(threaded_kernel.hits, serial_kernel.hits,
                        "algorithm A, kernel_threads 4 vs 1");
  EXPECT_EQ(threaded_kernel.candidates, serial_kernel.candidates);
  // Byte-identical virtual trace: every counter and every clock charge must
  // be independent of intra-rank threading — including the span timeline.
  EXPECT_EQ(threaded_kernel.report.to_string(),
            serial_kernel.report.to_string());
  EXPECT_EQ(threaded_kernel.report.to_chrome_trace(),
            serial_kernel.report.to_chrome_trace());
  EXPECT_EQ(threaded_kernel.report.to_iteration_csv(),
            serial_kernel.report.to_iteration_csv());
}

TEST(KernelThreads, FaultScheduleOutcomeIsThreadCountInvariant) {
  const Workload& w = workload();
  sim::FaultModel faults;
  faults.straggle(1, 3.0).fail_transfers(2, {0}).crash(3, 2);
  sim::Runtime runtime(4, {}, {}, faults);
  runtime.enable_tracing();

  SearchConfig config = base_config();
  config.kernel_threads = 1;
  const ParallelRunResult serial_kernel =
      run_algorithm_a(runtime, w.image, w.queries, config);
  config.kernel_threads = 4;
  const ParallelRunResult threaded_kernel =
      run_algorithm_a(runtime, w.image, w.queries, config);

  expect_hits_identical(threaded_kernel.hits, serial_kernel.hits,
                        "algorithm A under faults, kernel_threads 4 vs 1");
  EXPECT_EQ(threaded_kernel.report.to_string(),
            serial_kernel.report.to_string());
  EXPECT_EQ(threaded_kernel.report.to_chrome_trace(),
            serial_kernel.report.to_chrome_trace());
}

}  // namespace
}  // namespace msp
