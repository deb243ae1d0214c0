// Query-mass envelope validation for clipped shard indexes.
//
// Every batch driver builds its shard's CandidateIndex (and with it the
// fragment-ion index and the routing histogram) only from candidates some
// query of the run can match: the envelope is the min and max hypothesis
// mass plus the precursor windows (DESIGN.md §5d). The claims pinned here:
//  * the clip keeps every candidate either kernel predicate form can score,
//    so hits, stats and per-query counts equal the unclipped index's, and
//    every driver stays bit-identical to search_shard_reference across
//    narrow, open (fragment index), alternate-charge and tryptic configs,
//    clean and — for Algorithm A — under a crash schedule;
//  * the index records the envelope it was clipped for, the indexed-shard
//    wire record carries it, and search_shard refuses an index that does
//    not cover its queries instead of silently returning fewer hits;
//  * the runs' own reports show the shrink (index_entries,
//    fragment_postings).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/algorithm_a.hpp"
#include "core/algorithm_b.hpp"
#include "core/algorithm_hybrid.hpp"
#include "core/candidate_index.hpp"
#include "core/fragment_index.hpp"
#include "core/master_worker.hpp"
#include "core/packdb.hpp"
#include "core/query_transport.hpp"
#include "core/rank_steps.hpp"
#include "core/search_engine.hpp"
#include "dbgen/protein_gen.hpp"
#include "dbgen/query_gen.hpp"
#include "io/fasta.hpp"
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
    db_options.sequence_count = 32;
    db_options.mean_length = 110;
    db_options.seed = 16001;
    db = generate_proteins(db_options);
    image = to_fasta_string(db);

    QueryGenOptions q_options;
    q_options.query_count = 16;
    q_options.seed = 16002;
    q_options.digest.min_length = 6;
    q_options.digest.max_length = 20;
    queries = spectra_of(generate_queries(db, q_options));
  }
};

const Workload& workload() {
  static const Workload w;
  return w;
}

SearchConfig narrow_config() {
  SearchConfig config;
  config.tolerance_da = 3.0;
  config.tau = 5;
  config.min_candidate_length = 5;
  config.max_candidate_length = 60;
  config.model = ScoreModel::kLikelihood;
  return config;
}

/// The four configs of the oracle matrix.
struct NamedConfig {
  std::string name;
  SearchConfig config;
};

std::vector<NamedConfig> matrix_configs() {
  std::vector<NamedConfig> configs;
  configs.push_back({"narrow", narrow_config()});

  SearchConfig open = narrow_config();
  open.open_window_da = 200.0;
  open.min_fragment_votes = 3;
  open.candidate_source = CandidateSourceKind::kFragmentIndex;
  configs.push_back({"open", open});

  SearchConfig charges = narrow_config();
  charges.tolerance_da = 0.5;
  charges.try_alternate_charges = true;
  configs.push_back({"alternate-charges", charges});

  SearchConfig tryptic = narrow_config();
  tryptic.candidate_mode = CandidateMode::kTryptic;
  tryptic.candidate_missed_cleavages = 2;
  configs.push_back({"tryptic", tryptic});
  return configs;
}

std::span<const Spectrum> all_queries() {
  const Workload& w = workload();
  return {w.queries.data(), w.queries.size()};
}

/// The oracle: the database-walking kernel over the unsharded database.
QueryHits reference_hits(const SearchConfig& config) {
  const SearchEngine engine(config);
  const PreparedQueries prepared = engine.prepare(all_queries());
  std::vector<TopK<Hit>> tops = engine.make_tops(prepared.size());
  engine.search_shard_reference(workload().db, prepared, tops);
  return engine.finalize(tops);
}

/// Bit-identity: every field of every hit, doubles compared with ==.
void expect_hits_identical(const QueryHits& got, const QueryHits& want,
                           const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t q = 0; q < want.size(); ++q) {
    ASSERT_EQ(got[q].size(), want[q].size()) << label << " query " << q;
    for (std::size_t h = 0; h < want[q].size(); ++h) {
      const Hit& a = got[q][h];
      const Hit& b = want[q][h];
      EXPECT_TRUE(a == b && a.mass == b.mass && a.peptide == b.peptide)
          << label << " q" << q << " h" << h << ": " << a.peptide << " "
          << a.score << " vs " << b.peptide << " " << b.score;
    }
  }
}

MassEnvelope query_envelope(const SearchConfig& config) {
  return detail::query_mass_envelope(SearchEngine(config), all_queries());
}

// ---------- the envelope rule ----------

TEST(MassEnvelope, DefaultIsUnboundedAndEmptyAdmitsNothing) {
  const MassEnvelope unbounded;
  for (const double mass : {0.0, 1.0, 3500.0, 7000.0, 1e9})
    EXPECT_TRUE(unbounded.admits(mass)) << mass;

  const MassEnvelope empty =
      detail::query_mass_envelope(SearchEngine(narrow_config()), {});
  EXPECT_GT(empty.lo, empty.hi);
  for (const double mass : {0.0, 1000.0, 1e9})
    EXPECT_FALSE(empty.admits(mass)) << mass;
  EXPECT_TRUE(unbounded.covers(empty));
  EXPECT_TRUE(empty.covers(empty));
}

TEST(MassEnvelope, CoversOnlyNarrowerRangesAndWindows) {
  const MassEnvelope clip{1000.0, 2000.0, 3.0, 3.0};
  EXPECT_TRUE(clip.covers({1000.0, 2000.0, 3.0, 3.0}));
  EXPECT_TRUE(clip.covers({1500.0, 1600.0, 0.5, 0.5}));
  EXPECT_FALSE(clip.covers({999.0, 1600.0, 3.0, 3.0}));
  EXPECT_FALSE(clip.covers({1500.0, 2000.5, 3.0, 3.0}));
  EXPECT_FALSE(clip.covers({1500.0, 1600.0, 3.5, 3.0}));
  EXPECT_FALSE(clip.covers({1500.0, 1600.0, 3.0, 203.0}));
  EXPECT_FALSE(clip.covers(MassEnvelope{}));
  EXPECT_TRUE(MassEnvelope{}.covers(clip));
}

// The clip keeps M exactly at the rounded edges of both predicate forms, so
// a candidate sitting on a window boundary can never be dropped.
TEST(MassEnvelope, AdmitsCandidatesOnTheRoundedWindowEdges) {
  const double below = 3.0;
  const double above = 203.7;
  for (const double mass : {500.123456789, 1234.56789, 3333.3333333}) {
    // Merge-join form: the heaviest hypothesis at M − above, the lightest
    // at M + below.
    const double top = mass - above;
    EXPECT_TRUE((MassEnvelope{top - 50.0, top, below, above}.admits(mass)));
    const double bottom = mass + below;
    EXPECT_TRUE(
        (MassEnvelope{bottom, bottom + 50.0, below, above}.admits(mass)));
    // Open-walk form: M at m − below of the lightest hypothesis, or at
    // m + above of the heaviest.
    const MassEnvelope around{mass, mass + 50.0, below, above};
    EXPECT_TRUE(around.admits(around.lo - below));
    EXPECT_TRUE(around.admits(around.hi + above));
    // A window past either edge is out.
    EXPECT_FALSE(around.admits(around.lo - 2 * below));
    EXPECT_FALSE(around.admits(around.hi + 2 * above));
  }
}

TEST(MassEnvelope, SpansEveryPreparedHypothesis) {
  for (const NamedConfig& named : matrix_configs()) {
    const SearchEngine engine(named.config);
    const PreparedQueries prepared = engine.prepare(all_queries());
    const MassEnvelope envelope = query_envelope(named.config);
    EXPECT_EQ(envelope.lo, prepared.min_mass()) << named.name;
    EXPECT_EQ(envelope.hi, prepared.max_mass()) << named.name;
    EXPECT_EQ(envelope.below, named.config.window_below()) << named.name;
    EXPECT_EQ(envelope.above, named.config.window_above()) << named.name;
  }
}

// ---------- the clipped index ----------

// Every candidate the clip drops is one no hypothesis windows under either
// predicate form, and searching the clipped index equals searching the
// unclipped one: hits, kernel stats and per-query candidate counts.
TEST(ClippedIndex, DropsOnlyCandidatesNoHypothesisWindows) {
  const Workload& w = workload();
  for (const NamedConfig& named : matrix_configs()) {
    const SearchConfig& config = named.config;
    const SearchEngine engine(config);
    const PreparedQueries prepared = engine.prepare(all_queries());
    const MassEnvelope envelope = query_envelope(config);
    const CandidateIndex full = CandidateIndex::build(w.db, config);
    const CandidateIndex clipped =
        CandidateIndex::build(w.db, config, envelope);
    EXPECT_EQ(clipped.envelope(), envelope) << named.name;
    EXPECT_EQ(full.envelope(), MassEnvelope{}) << named.name;
    EXPECT_LT(clipped.size(), full.size()) << named.name;

    const double below = config.window_below();
    const double above = config.window_above();
    std::size_t kept = 0;
    for (const IndexedCandidate& entry : full.entries()) {
      bool windowed = false;
      for (const double m : prepared.sorted_masses)
        windowed = windowed ||
                   (entry.mass - above <= m && entry.mass + below >= m) ||
                   (entry.mass >= m - below && entry.mass <= m + above);
      if (!envelope.admits(entry.mass)) {
        EXPECT_FALSE(windowed) << named.name << " dropped " << entry.mass;
      } else {
        ++kept;
      }
    }
    EXPECT_EQ(kept, clipped.size()) << named.name;

    const auto run = [&](const CandidateIndex& index) {
      std::vector<std::uint64_t> per_query(prepared.size(), 0);
      std::vector<TopK<Hit>> tops = engine.make_tops(prepared.size());
      const FragmentIndex fragment =
          FragmentIndex::build(w.db, index, config.bin_width);
      const ShardSearchStats stats =
          engine.search_shard(w.db, prepared, tops, &per_query, &index,
                              config.open_search() ? &fragment : nullptr);
      return std::make_tuple(engine.finalize(tops), stats, per_query);
    };
    const auto [full_hits, full_stats, full_counts] = run(full);
    const auto [hits, stats, counts] = run(clipped);
    expect_hits_identical(hits, full_hits, named.name);
    expect_hits_identical(hits, reference_hits(config), named.name);
    EXPECT_EQ(stats.candidates_evaluated, full_stats.candidates_evaluated);
    EXPECT_EQ(stats.candidates_prefiltered, full_stats.candidates_prefiltered);
    EXPECT_EQ(stats.hits_offered, full_stats.hits_offered);
    EXPECT_EQ(stats.ions_built, full_stats.ions_built);
    EXPECT_EQ(counts, full_counts) << named.name;
  }
}

// The bucketed build must give the comparator sort's exact entry order.
// The shard is built for ties: I/L-swapped copies tie every candidate mass
// across proteins bit for bit, and reversed and rotated copies (the same
// composition) plus palindromes put prefix/suffix candidates of one
// protein at or near equal masses.
TEST(CandidateIndex, BuildOrderMatchesComparatorSort) {
  ProteinDatabase shard = workload().db;
  const std::size_t originals = shard.proteins.size();
  for (std::size_t i = 0; i < originals; ++i) {
    const Protein& source = shard.proteins[i];
    Protein swapped{source.id + "_il", source.residues};
    for (char& c : swapped.residues)
      c = c == 'I' ? 'L' : c == 'L' ? 'I' : c;
    Protein reversed{source.id + "_rev", source.residues};
    std::reverse(reversed.residues.begin(), reversed.residues.end());
    Protein rotated{source.id + "_rot", source.residues};
    std::rotate(rotated.residues.begin(), rotated.residues.begin() + 7,
                rotated.residues.end());
    shard.proteins.push_back(std::move(swapped));
    shard.proteins.push_back(std::move(reversed));
    shard.proteins.push_back(std::move(rotated));
  }
  for (const std::string half : {"PEPTIDEK", "GGGGGGGG", "ACDKRLIL"}) {
    const std::string palindrome =
        half + std::string(half.rbegin(), half.rend());
    shard.proteins.push_back({"pal_" + half, palindrome});
  }

  const auto comparator_less = [](const IndexedCandidate& a,
                                  const IndexedCandidate& b) {
    if (a.mass != b.mass) return a.mass < b.mass;
    if (a.protein != b.protein) return a.protein < b.protein;
    if (a.offset != b.offset) return a.offset < b.offset;
    return a.length < b.length;
  };
  SearchConfig tryptic = narrow_config();
  tryptic.candidate_mode = CandidateMode::kTryptic;
  tryptic.candidate_missed_cleavages = 2;
  for (const SearchConfig& config : {narrow_config(), tryptic}) {
    for (const bool clip : {false, true}) {
      const std::string label =
          std::string(config.candidate_mode == CandidateMode::kTryptic
                          ? "tryptic"
                          : "prefix-suffix") +
          (clip ? " clipped" : " unclipped");
      const CandidateIndex index =
          clip ? CandidateIndex::build(shard, config, query_envelope(config))
               : CandidateIndex::build(shard, config);
      std::vector<IndexedCandidate> want = index.entries();
      std::sort(want.begin(), want.end(), comparator_less);
      const std::vector<IndexedCandidate>& got = index.entries();
      ASSERT_EQ(got.size(), want.size()) << label;
      std::size_t cross_protein_ties = 0;
      std::size_t same_protein_ties = 0;
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_TRUE(got[i].mass == want[i].mass &&
                    got[i].protein == want[i].protein &&
                    got[i].offset == want[i].offset &&
                    got[i].length == want[i].length &&
                    got[i].end == want[i].end)
            << label << " entry " << i;
        if (i > 0 && want[i].mass == want[i - 1].mass &&
            want[i].protein != want[i - 1].protein)
          ++cross_protein_ties;
        if (i > 0 && want[i].mass == want[i - 1].mass &&
            want[i].protein == want[i - 1].protein)
          ++same_protein_ties;
      }
      EXPECT_GT(cross_protein_ties, 0u) << label;
      EXPECT_GT(same_protein_ties, 0u) << label;
    }
  }
}

// A prefix/suffix length range with no member (max below min, also when
// a huge max truncates in the index's 32-bit parameters) enumerates
// nothing: the build returns an empty index rather than sizing its
// reservation from a wrapped difference.
TEST(CandidateIndex, EmptyLengthRangeBuildsAnEmptyIndex) {
  const ProteinDatabase& db = workload().db;
  SearchConfig config = narrow_config();
  ASSERT_EQ(config.candidate_mode, CandidateMode::kPrefixSuffix);
  config.min_candidate_length = 8;
  config.max_candidate_length = 6;
  EXPECT_TRUE(CandidateIndex::build(db, config).empty());
  config.max_candidate_length = (std::size_t{1} << 32) + 3;
  EXPECT_TRUE(CandidateIndex::build(db, config).empty());
}

TEST(ClippedIndex, WireRecordCarriesTheEnvelope) {
  const Workload& w = workload();
  SearchConfig config = narrow_config();
  config.open_window_da = 200.0;
  const MassEnvelope envelope = query_envelope(config);
  const CandidateIndex clipped = CandidateIndex::build(w.db, config, envelope);
  const FragmentIndex fragment =
      FragmentIndex::build(w.db, clipped, config.bin_width);
  const std::vector<char> image =
      pack_shard(w.db, clipped, config.bin_width).bytes;
  const ShardView back = unpack_shard(image);
  ASSERT_TRUE(back.fragment.has_value());
  EXPECT_EQ(back.envelope, envelope);
  ASSERT_EQ(back.entries.size(), clipped.size());
  for (std::size_t i = 0; i < clipped.size(); ++i) {
    EXPECT_EQ(back.entries[i].mass, clipped.entries()[i].mass);
    EXPECT_EQ(back.entries[i].protein, clipped.entries()[i].protein);
    EXPECT_EQ(back.entries[i].offset, clipped.entries()[i].offset);
  }
  EXPECT_EQ(*back.fragment, fragment.view());
  // The unclipped index round-trips its unbounded envelope too.
  const CandidateIndex full = CandidateIndex::build(w.db, config);
  const std::vector<char> full_image = pack_shard(w.db, full);
  EXPECT_EQ(unpack_shard(full_image).envelope, MassEnvelope{});
}

// ---------- the coverage guard ----------

TEST(ClippedIndex, SearchRejectsAnIndexThatDoesNotCoverItsQueries) {
  const Workload& w = workload();
  const SearchConfig config = narrow_config();
  const SearchEngine engine(config);
  const PreparedQueries prepared = engine.prepare(all_queries());
  std::vector<TopK<Hit>> tops = engine.make_tops(prepared.size());

  // Clipped for the lightest half of the queries only: the heaviest query
  // falls outside its envelope.
  std::vector<Spectrum> light(w.queries.begin(), w.queries.end());
  std::sort(light.begin(), light.end(),
            [](const Spectrum& a, const Spectrum& b) {
              return a.parent_mass() < b.parent_mass();
            });
  light.resize(light.size() / 2);
  const CandidateIndex partial = CandidateIndex::build(
      w.db, config, detail::query_mass_envelope(engine, light));
  EXPECT_THROW(
      engine.search_shard(w.db, prepared, tops, nullptr, &partial, nullptr),
      InvalidArgument);

  // Clipped for narrow windows, searched under the open ones.
  SearchConfig open = config;
  open.open_window_da = 200.0;
  open.candidate_source = CandidateSourceKind::kMassWindow;
  const SearchEngine open_engine(open);
  const CandidateIndex narrow_clip =
      CandidateIndex::build(w.db, config, query_envelope(config));
  const PreparedQueries open_prepared = open_engine.prepare(all_queries());
  EXPECT_THROW(open_engine.search_shard(w.db, open_prepared, tops, nullptr,
                                        &narrow_clip, nullptr),
               InvalidArgument);

  // Clipped for no queries at all.
  const CandidateIndex none = CandidateIndex::build(
      w.db, config, detail::query_mass_envelope(engine, {}));
  EXPECT_TRUE(none.empty());
  EXPECT_THROW(
      engine.search_shard(w.db, prepared, tops, nullptr, &none, nullptr),
      InvalidArgument);

  // The matching clip, and the unclipped index, are accepted.
  const CandidateIndex exact =
      CandidateIndex::build(w.db, config, query_envelope(config));
  EXPECT_NO_THROW(
      engine.search_shard(w.db, prepared, tops, nullptr, &exact, nullptr));
  const CandidateIndex full = CandidateIndex::build(w.db, config);
  EXPECT_NO_THROW(
      engine.search_shard(w.db, prepared, tops, nullptr, &full, nullptr));
}

// ---------- the oracle matrix: driver × config × fault schedule ----------

struct DriverRun {
  QueryHits hits;
  sim::RunReport report;
};

DriverRun run_driver(const std::string& driver, const SearchConfig& config,
                     const sim::Runtime& runtime) {
  const Workload& w = workload();
  if (driver == "A") {
    ParallelRunResult r =
        run_algorithm_a(runtime, w.image, w.queries, config);
    return {std::move(r.hits), std::move(r.report)};
  }
  if (driver == "B") {
    AlgorithmBResult r = run_algorithm_b(runtime, w.image, w.queries, config);
    return {std::move(r.hits), std::move(r.report)};
  }
  if (driver == "hybrid") {
    HybridOptions options;
    options.groups = 2;  // kGroups below
    HybridResult r =
        run_algorithm_hybrid(runtime, w.image, w.queries, config, options);
    return {std::move(r.hits), std::move(r.report)};
  }
  if (driver == "master-worker") {
    MasterWorkerOptions options;
    options.batch_size = 3;
    ParallelRunResult r =
        run_master_worker(runtime, w.image, w.queries, config, options);
    return {std::move(r.hits), std::move(r.report)};
  }
  ParallelRunResult r =
      run_query_transport(runtime, w.image, w.queries, config);
  return {std::move(r.hits), std::move(r.report)};
}

TEST(ClippedIndex, EveryDriverMatchesTheReferenceKernel) {
  constexpr int kP = 4;
  constexpr int kGroups = 2;
  const Workload& w = workload();
  for (const NamedConfig& named : matrix_configs()) {
    const SearchConfig& config = named.config;
    const QueryHits want = reference_hits(config);
    std::size_t listed = 0;
    for (const std::vector<Hit>& per_query : want) listed += per_query.size();
    ASSERT_GT(listed, want.size()) << named.name;
    // Candidates and postings are per-protein, so the ranks' clipped shard
    // indexes together hold exactly the whole database's clipped index.
    const CandidateIndex clipped =
        CandidateIndex::build(w.db, config, query_envelope(config));
    const std::uint64_t postings =
        config.open_search()
            ? FragmentIndex::build(w.db, clipped, config.bin_width)
                  .posting_count()
            : 0;
    for (const std::string driver :
         {"A", "B", "hybrid", "master-worker", "query-transport"}) {
      const std::string label = driver + " " + named.name;
      const DriverRun run = run_driver(driver, config, sim::Runtime(kP));
      expect_hits_identical(run.hits, want, label);

      // The run's own report shows the clipped sizes. Master–worker's
      // workers each index the whole database; the hybrid's groups each
      // index it clipped to their own queries.
      const std::uint64_t entries = run.report.sum_counter("index_entries");
      const std::uint64_t posted = run.report.sum_counter("fragment_postings");
      if (driver == "master-worker") {
        EXPECT_EQ(entries, (kP - 1) * clipped.size()) << label;
        EXPECT_EQ(posted, (kP - 1) * postings) << label;
      } else if (driver == "hybrid") {
        EXPECT_GT(entries, 0u) << label;
        EXPECT_LE(entries, kGroups * clipped.size()) << label;
        EXPECT_LE(posted, kGroups * postings) << label;
      } else {
        EXPECT_EQ(entries, clipped.size()) << label;
        EXPECT_EQ(posted, postings) << label;
      }
    }

    // Orphans of a crashed rank are re-searched against the clipped shards
    // the survivors fetch (and, for the dead rank's own shard, its replica).
    sim::FaultModel faults;
    faults.crash(1, kP / 2);
    const DriverRun crashed =
        run_driver("A", config, sim::Runtime(kP, {}, {}, faults));
    expect_hits_identical(crashed.hits, want, "A crash " + named.name);
    EXPECT_EQ(crashed.report.crashed_ranks(), std::vector<int>{1});
    EXPECT_GT(crashed.report.sum_counter("recovered_queries"), 0u);
  }
}

}  // namespace
}  // namespace msp
