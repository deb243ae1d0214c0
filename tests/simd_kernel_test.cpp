// The blocked scoring kernel's three contracts (DESIGN.md §5j):
//
//  1. Duplicate-bin dedup: two theoretical ions landing in one fragment bin
//     are ONE piece of evidence. The IonLadder collapses them at build time
//     (first-hit wins on the m/z-sorted ion list), so a kernel cannot
//     re-count a query peak — the regression tests here fail against the
//     pre-fix per-ion counting.
//  2. Scalar/SIMD bit-identity: both backends accumulate the same values in
//     the same canonical (ascending ladder-entry) order, so stats, matched
//     intensities and ladder_dot results are bit-equal — checked over random
//     workloads plus the adversarial corners (empty ladders, all-miss
//     ladders, duplicate-bin ladders, denormal intensities), and end-to-end
//     through search_shard across kernel_threads and a fault schedule.
//  3. Xcorr parity: the fast single-pass formulation agrees with the naive
//     151-offset reference on any input, and the engine under
//     ScoreModel::kXcorr is oracle-identical (kernel_equiv_test covers the
//     oracle side; here the formulation itself is validated).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/algorithm_a.hpp"
#include "core/search_engine.hpp"
#include "dbgen/protein_gen.hpp"
#include "dbgen/query_gen.hpp"
#include "io/fasta.hpp"
#include "scoring/kernel.hpp"
#include "scoring/xcorr.hpp"
#include "simmpi/runtime.hpp"
#include "spectra/spectrum.hpp"
#include "spectra/theoretical.hpp"
#include "util/error.hpp"

namespace msp {
namespace {

constexpr double kBinWidth = kDefaultBinWidth;

/// Restores the process-global backend switch on scope exit so a failing
/// test cannot leak a forced backend into later tests.
struct BackendGuard {
  ~BackendGuard() { set_scoring_backend(ScoringBackend::kAuto); }
};

double bin_center(std::int32_t bin) {
  return (static_cast<double>(bin) + 0.5) * kBinWidth;
}

// ---------- ladder construction: dedup, classification, padding ----------

TEST(IonLadder, CollapsesDuplicateBinsFirstHitWins) {
  // Three ions, the first two in one bin: a b-ion then a y-ion. The bin is
  // claimed by the b-ion (first hit on the sorted list), the y-ion is the
  // duplicate that must not create a second entry.
  const std::vector<FragmentIon> ions = {
      {bin_center(100) - 0.2, FragmentIon::Type::kB, 1},
      {bin_center(100) + 0.2, FragmentIon::Type::kY, 2},
      {bin_center(250), FragmentIon::Type::kY, 3},
  };
  IonLadder ladder;
  build_ion_ladder(ions, kBinWidth, ladder);
  EXPECT_EQ(ladder.total_ions, 3u);
  ASSERT_EQ(ladder.size, 2u);
  // Classification follows the claiming ion: bin 100 sits in the b stream,
  // bin 250 in the y stream.
  ASSERT_EQ(ladder.b_size, 1u);
  EXPECT_EQ(ladder.b_stream()[0], 100);
  ASSERT_EQ(ladder.y_size(), 1u);
  EXPECT_EQ(ladder.y_stream()[0], 250);
}

TEST(IonLadder, PadsToFullBlocksWithSentinel) {
  // Three b bins and ten y bins: the y stream follows the b stream, and the
  // two share the padded tail block.
  std::vector<FragmentIon> ions;
  for (std::int32_t bin = 10; bin < 13; ++bin)
    ions.push_back({bin_center(bin), FragmentIon::Type::kB, 1});
  for (std::int32_t bin = 20; bin < 30; ++bin)
    ions.push_back({bin_center(bin), FragmentIon::Type::kY, 1});
  IonLadder ladder;
  build_ion_ladder(ions, kBinWidth, ladder);
  EXPECT_EQ(ladder.size, 13u);
  EXPECT_EQ(ladder.b_size, 3u);
  ASSERT_EQ(ladder.bins.size(), 2 * kLadderBlock);
  EXPECT_EQ(ladder.block_count(), 2u);
  for (std::size_t i = 0; i < ladder.b_size; ++i)
    EXPECT_EQ(ladder.b_stream()[i], static_cast<std::int32_t>(10 + i));
  for (std::size_t i = 0; i < ladder.y_size(); ++i)
    EXPECT_EQ(ladder.y_stream()[i], static_cast<std::int32_t>(20 + i));
  for (std::size_t i = ladder.size; i < ladder.bins.size(); ++i)
    EXPECT_EQ(ladder.bins[i], kLadderPadBin) << "pad entry " << i;
}

TEST(IonLadder, EmptyIonListYieldsEmptyLadder) {
  IonLadder ladder;
  build_ion_ladder({}, kBinWidth, ladder);
  EXPECT_EQ(ladder.size, 0u);
  EXPECT_EQ(ladder.total_ions, 0u);
  EXPECT_EQ(ladder.block_count(), 0u);
}

// ---------- duplicate-bin regression: one peak, one count ----------

TEST(DuplicateBinRegression, TwiceHitBinCountsOnce) {
  // One query peak; a candidate whose b2 and y5 ions both land in its bin.
  // Pre-fix, the per-ion match loop counted the peak twice (matched == 2,
  // intensity doubled); the deduplicated ladder makes that impossible.
  const double peak_mz = bin_center(400);
  const Spectrum query({{peak_mz, 7.0}}, 500.0, 1);
  const BinnedSpectrum binned(query, kBinWidth);

  const std::vector<FragmentIon> ions = {
      {peak_mz - 0.3, FragmentIon::Type::kB, 2},
      {peak_mz + 0.3, FragmentIon::Type::kY, 5},
  };
  IonLadder ladder;
  build_ion_ladder(ions, kBinWidth, ladder);
  ASSERT_EQ(ladder.size, 1u);

  std::vector<float> matched;
  const PeakMatchStats stats = match_ladder(binned, ladder, &matched);
  EXPECT_EQ(stats.matched_b + stats.matched_y, 1u);
  EXPECT_EQ(stats.matched_b, 1u);  // the b-ion claimed the bin
  EXPECT_EQ(stats.total_ions, 2u);
  EXPECT_EQ(stats.matched_intensity, 7.0);  // counted once, not 14
  ASSERT_EQ(matched.size(), 1u);
  EXPECT_EQ(matched[0], 7.0f);
}

TEST(DuplicateBinRegression, RealPeptideWithCollidingSeries) {
  // Find a peptide whose b/y series actually collide in a bin, then check
  // the engine-facing invariant: distinct matched bins never exceed the
  // number of occupied query bins, even when the query contains every
  // theoretical ion (the self-match, where pre-fix double counting was
  // largest).
  // This peptide's b and y series collide in one fragment bin (found by
  // scanning random octamers: 13 distinct bins from 14 ions).
  const std::string peptide = "PCFCSECI";
  const std::vector<FragmentIon> ions = fragment_ions(peptide, {});
  IonLadder ladder;
  build_ion_ladder(ions, kBinWidth, ladder);
  ASSERT_LT(ladder.size, ladder.total_ions)
      << "workload has no duplicate-bin collision; pick another peptide";

  std::vector<Peak> peaks;
  for (const FragmentIon& ion : ions) peaks.push_back({ion.mz, 1.0});
  const Spectrum query(std::move(peaks), 800.0, 1);
  const BinnedSpectrum binned(query, kBinWidth);

  const PeakMatchStats stats = match_ladder(binned, ladder);
  EXPECT_EQ(stats.matched_b + stats.matched_y, ladder.size);
  EXPECT_LE(stats.matched_b + stats.matched_y, binned.peak_bin_count());
  EXPECT_EQ(stats.matched_intensity,
            static_cast<double>(ladder.size));  // unit peaks, once each
}

// ---------- scalar/SIMD bit-identity ----------

void expect_backends_identical(const BinnedSpectrum& binned,
                               const IonLadder& ladder,
                               const std::string& label) {
  std::vector<float> scalar_matched;
  std::vector<float> simd_matched;
  const PeakMatchStats scalar =
      match_ladder_scalar(binned, ladder, &scalar_matched);
  const PeakMatchStats simd = match_ladder_simd(binned, ladder, &simd_matched);
  EXPECT_EQ(scalar.matched_b, simd.matched_b) << label;
  EXPECT_EQ(scalar.matched_y, simd.matched_y) << label;
  EXPECT_EQ(scalar.total_ions, simd.total_ions) << label;
  EXPECT_EQ(scalar.matched_intensity, simd.matched_intensity) << label;
  ASSERT_EQ(scalar_matched.size(), simd_matched.size()) << label;
  for (std::size_t i = 0; i < scalar_matched.size(); ++i)
    EXPECT_EQ(scalar_matched[i], simd_matched[i]) << label << " match " << i;
}

TEST(BackendBitIdentity, RandomWorkloads) {
  if (!simd_compiled()) GTEST_SKIP() << "scalar-only build";
  std::mt19937 rng(20090817);
  std::uniform_int_distribution<int> peak_count(0, 120);
  std::uniform_real_distribution<double> mz(50.0, 2000.0);
  std::uniform_real_distribution<double> intensity(1e-3, 100.0);
  std::uniform_int_distribution<int> ion_count(0, 80);

  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Peak> peaks;
    const int peaks_n = peak_count(rng);
    for (int i = 0; i < peaks_n; ++i)
      peaks.push_back({mz(rng), intensity(rng)});
    const Spectrum query(std::move(peaks), 900.0, 2);
    const BinnedSpectrum binned(query, kBinWidth);

    std::vector<FragmentIon> ions;
    const int ions_n = ion_count(rng);
    for (int i = 0; i < ions_n; ++i)
      ions.push_back({mz(rng),
                      (rng() & 1u) ? FragmentIon::Type::kY
                                   : FragmentIon::Type::kB,
                      static_cast<unsigned>(i + 1)});
    std::sort(ions.begin(), ions.end(),
              [](const FragmentIon& a, const FragmentIon& b) {
                return a.mz < b.mz;
              });
    IonLadder ladder;
    build_ion_ladder(ions, kBinWidth, ladder);
    expect_backends_identical(binned, ladder,
                              "trial " + std::to_string(trial));
  }
}

// Matched b and y lanes interleave in bin order (and the y stream starts
// inside a block): every backend must hand back matched_out in ascending-bin
// order and sum matched_intensity in that order, with the same counts —
// with and without matched_out.
TEST(BackendBitIdentity, InterleavedStreamsFoldInBinOrder) {
  std::vector<FragmentIon> ions;
  for (std::int32_t k = 0; k < 11; ++k) {
    ions.push_back({bin_center(100 + 40 * k), FragmentIon::Type::kB, 1});
    ions.push_back({bin_center(120 + 40 * k), FragmentIon::Type::kY, 1});
  }
  std::sort(ions.begin(), ions.end(),
            [](const FragmentIon& a, const FragmentIon& b) {
              return a.mz < b.mz;
            });
  IonLadder ladder;
  build_ion_ladder(ions, kBinWidth, ladder);
  ASSERT_EQ(ladder.b_size, 11u);
  ASSERT_EQ(ladder.size, 22u);

  // Peaks on every b ion (1) and on the first two y ions (2^53): the double
  // sum keeps the ones only when they come before the 2^53s, so the
  // bin-order sum and a b-stream-then-y-stream sum differ.
  std::vector<Peak> peaks;
  std::vector<float> want_matched;
  double want_intensity = 0.0;
  double stream_order = 0.0;
  std::size_t y_seen = 0;
  for (const FragmentIon& ion : ions) {
    const bool is_b = ion.type == FragmentIon::Type::kB;
    if (!is_b && y_seen++ >= 2) continue;
    const float value = is_b ? 1.0f : 0x1p53f;
    peaks.push_back({ion.mz, value});
    want_matched.push_back(value);
    want_intensity += value;
    if (is_b) stream_order += value;
  }
  stream_order += 2 * 0x1p53;
  const std::size_t want_b = ladder.b_size;
  ASSERT_NE(want_intensity, stream_order) << "the sum tells no orders apart";
  const BinnedSpectrum binned(Spectrum(std::move(peaks), 900.0, 1),
                              kBinWidth);
  const auto check = [&](const PeakMatchStats& stats,
                         const std::vector<float>& matched,
                         const std::string& backend) {
    EXPECT_EQ(matched, want_matched) << backend;
    EXPECT_EQ(stats.matched_intensity, want_intensity) << backend;
    EXPECT_EQ(stats.matched_b, want_b) << backend;
    EXPECT_EQ(stats.matched_y, want_matched.size() - want_b) << backend;
    EXPECT_EQ(stats.total_ions, ions.size()) << backend;
  };
  const auto check_backend = [&](const auto& match,
                                 const std::string& backend) {
    std::vector<float> matched;
    check(match(binned, ladder, &matched), matched, backend);
    check(match(binned, ladder, nullptr), want_matched,
          backend + " without matched_out");
  };
  check_backend(match_ladder_scalar, "scalar");
  if (!simd_compiled()) return;
  check_backend(match_ladder_vector, "generic vector");
  check_backend(match_ladder_simd, "simd (AVX2 where the CPU has it)");
}

TEST(BackendBitIdentity, AdversarialCorners) {
  if (!simd_compiled()) GTEST_SKIP() << "scalar-only build";
  const Spectrum query({{bin_center(64), 3.5}, {bin_center(65), 1.0}}, 500.0,
                       1);
  const BinnedSpectrum binned(query, kBinWidth);

  // Empty ladder.
  IonLadder empty;
  build_ion_ladder({}, kBinWidth, empty);
  expect_backends_identical(binned, empty, "empty ladder");

  // All-miss ladder: every bin beyond the query grid (the early-break path).
  std::vector<FragmentIon> far;
  for (std::int32_t bin = 5000; bin < 5040; ++bin)
    far.push_back({bin_center(bin), FragmentIon::Type::kB, 1});
  IonLadder all_miss;
  build_ion_ladder(far, kBinWidth, all_miss);
  expect_backends_identical(binned, all_miss, "all-miss ladder");

  // Duplicate-bin ladder hitting the grid.
  IonLadder dup;
  build_ion_ladder({{bin_center(64) - 0.2, FragmentIon::Type::kB, 1},
                    {bin_center(64) + 0.2, FragmentIon::Type::kY, 2}},
                   kBinWidth, dup);
  expect_backends_identical(binned, dup, "duplicate-bin ladder");

  // Empty query grid against a non-empty ladder.
  const BinnedSpectrum no_peaks{Spectrum({}, 500.0, 1), kBinWidth};
  expect_backends_identical(no_peaks, dup, "empty query");

  // Denormal intensities: the compare-greater-than-zero mask must agree
  // between the vector compare and the scalar compare at the denormal edge.
  const Spectrum tiny({{bin_center(64), 1e-42}, {bin_center(65), 1e-300}},
                      500.0, 1);
  const BinnedSpectrum tiny_binned(tiny, kBinWidth);
  IonLadder both;
  build_ion_ladder({{bin_center(64), FragmentIon::Type::kB, 1},
                    {bin_center(65), FragmentIon::Type::kY, 2}},
                   kBinWidth, both);
  expect_backends_identical(tiny_binned, both, "denormal intensities");
}

TEST(BackendBitIdentity, LadderDotMatchesAcrossBackends) {
  if (!simd_compiled()) GTEST_SKIP() << "scalar-only build";
  std::mt19937 rng(775);
  std::uniform_real_distribution<float> weight(-5.0f, 5.0f);
  std::vector<float> weights(700);
  for (float& w : weights) w = weight(rng);

  std::vector<FragmentIon> ions;
  for (std::int32_t bin = 3; bin < 900; bin += 7)
    ions.push_back({bin_center(bin), FragmentIon::Type::kB, 1});
  IonLadder ladder;
  build_ion_ladder(ions, kBinWidth, ladder);

  const double scalar = ladder_dot_scalar(weights, ladder);
  const double simd = ladder_dot_simd(weights, ladder);
  EXPECT_EQ(scalar, simd);  // bit-equal: same values, same order

  // And through the dispatcher under both forced backends.
  BackendGuard guard;
  set_scoring_backend(ScoringBackend::kScalar);
  EXPECT_EQ(ladder_dot(weights, ladder), scalar);
  set_scoring_backend(ScoringBackend::kSimd);
  EXPECT_EQ(ladder_dot(weights, ladder), scalar);
}

// ---------- backend switch semantics ----------

TEST(BackendSwitch, AutoResolvesToCompiledBest) {
  BackendGuard guard;
  set_scoring_backend(ScoringBackend::kAuto);
  EXPECT_EQ(active_scoring_backend(), simd_compiled()
                                          ? ScoringBackend::kSimd
                                          : ScoringBackend::kScalar);
  set_scoring_backend(ScoringBackend::kScalar);
  EXPECT_EQ(active_scoring_backend(), ScoringBackend::kScalar);
}

TEST(BackendSwitch, ForcingSimdThrowsInScalarOnlyBuild) {
  BackendGuard guard;
  if (simd_compiled()) {
    set_scoring_backend(ScoringBackend::kSimd);
    EXPECT_EQ(active_scoring_backend(), ScoringBackend::kSimd);
  } else {
    EXPECT_THROW(set_scoring_backend(ScoringBackend::kSimd), InvalidArgument);
  }
}

// ---------- end-to-end backend identity (engine, threads, faults) ----------

struct EngineWorkload {
  ProteinDatabase db;
  std::string image;
  std::vector<Spectrum> queries;

  EngineWorkload() {
    ProteinGenOptions db_options;
    db_options.sequence_count = 40;
    db_options.mean_length = 120;
    db_options.seed = 5150;
    db = generate_proteins(db_options);
    image = to_fasta_string(db);

    QueryGenOptions q_options;
    q_options.query_count = 16;
    q_options.seed = 5151;
    queries = spectra_of(generate_queries(db, q_options));
  }
};

const EngineWorkload& engine_workload() {
  static const EngineWorkload w;
  return w;
}

QueryHits search_hits(const SearchConfig& config) {
  const EngineWorkload& w = engine_workload();
  const SearchEngine engine(config);
  const PreparedQueries prepared = engine.prepare(w.queries);
  std::vector<TopK<Hit>> tops = engine.make_tops(prepared.size());
  engine.search_shard(w.db, prepared, tops, nullptr);
  return engine.finalize(tops);
}

void expect_hits_equal(const QueryHits& a, const QueryHits& b,
                       const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t q = 0; q < a.size(); ++q) {
    ASSERT_EQ(a[q].size(), b[q].size()) << label << " query " << q;
    for (std::size_t h = 0; h < a[q].size(); ++h) {
      EXPECT_EQ(a[q][h].score, b[q][h].score) << label << " q" << q;
      EXPECT_EQ(a[q][h].peptide, b[q][h].peptide) << label << " q" << q;
    }
  }
}

TEST(BackendEngineIdentity, SearchHitsAcrossModelsAndThreads) {
  if (!simd_compiled()) GTEST_SKIP() << "scalar-only build";
  BackendGuard guard;
  for (const ScoreModel model :
       {ScoreModel::kLikelihood, ScoreModel::kHyperscore,
        ScoreModel::kSharedPeak, ScoreModel::kXcorr}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SearchConfig config;
      config.model = model;
      config.kernel_threads = threads;
      set_scoring_backend(ScoringBackend::kScalar);
      const QueryHits scalar = search_hits(config);
      set_scoring_backend(ScoringBackend::kSimd);
      const QueryHits simd = search_hits(config);
      expect_hits_equal(scalar, simd,
                        "model=" + std::to_string(static_cast<int>(model)) +
                            " threads=" + std::to_string(threads));
    }
  }
}

TEST(BackendEngineIdentity, FaultScheduleOutcomeIsBackendInvariant) {
  if (!simd_compiled()) GTEST_SKIP() << "scalar-only build";
  BackendGuard guard;
  const EngineWorkload& w = engine_workload();
  SearchConfig config;
  config.model = ScoreModel::kXcorr;

  sim::FaultModel faults;
  faults.straggle(1, 2.0).crash(2, 3);
  sim::Runtime runtime(3, {}, {}, faults);

  set_scoring_backend(ScoringBackend::kScalar);
  const ParallelRunResult scalar =
      run_algorithm_a(runtime, w.image, w.queries, config);
  set_scoring_backend(ScoringBackend::kSimd);
  const ParallelRunResult simd =
      run_algorithm_a(runtime, w.image, w.queries, config);

  expect_hits_equal(scalar.hits, simd.hits, "algorithm A under faults");
  EXPECT_EQ(scalar.candidates, simd.candidates);
}

// ---------- Xcorr formulation ----------

TEST(Xcorr, FastFormulationMatchesNaiveReference) {
  std::mt19937 rng(81);
  std::uniform_real_distribution<double> mz(100.0, 1600.0);
  std::uniform_real_distribution<double> intensity(0.5, 50.0);
  const std::string alphabet = "ACDEFGHIKLMNPQRSTVWY";
  std::uniform_int_distribution<std::size_t> letter(0, alphabet.size() - 1);
  std::uniform_int_distribution<int> length(6, 24);

  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Peak> peaks;
    for (int i = 0; i < 60; ++i) peaks.push_back({mz(rng), intensity(rng)});
    const Spectrum query(std::move(peaks), 700.0, 2);
    const BinnedSpectrum binned(query, kBinWidth);

    std::string peptide;
    const int n = length(rng);
    for (int i = 0; i < n; ++i) peptide += alphabet[letter(rng)];
    const std::vector<FragmentIon> ions = fragment_ions(peptide, {});
    IonLadder ladder;
    build_ion_ladder(ions, kBinWidth, ladder);

    const XcorrContext context(binned);
    const double fast = xcorr(context, ladder);
    const double naive = xcorr_reference(binned, ions);
    // The fast path stores float weights; the naive path accumulates the
    // same terms in double, so agreement is to float rounding of the
    // per-bin weights, not bit-exact.
    EXPECT_NEAR(fast, naive, 1e-3 * std::max(1.0, std::abs(naive)))
        << "trial " << trial << " peptide " << peptide;
  }
}

TEST(Xcorr, BackgroundSubtractionZeroesFlatSpectra) {
  // A perfectly flat spectrum has zero cross-correlation signal: every
  // weight is x - mean(window) ≈ 0 away from the grid edges.
  std::vector<Peak> peaks;
  for (std::int32_t bin = 0; bin < 800; ++bin)
    peaks.push_back({bin_center(bin), 4.0});
  const Spectrum query(std::move(peaks), 900.0, 1);
  const BinnedSpectrum binned(query, kBinWidth);
  const XcorrContext context(binned);

  IonLadder ladder;  // interior bins only, away from the edge ramp
  std::vector<FragmentIon> ions;
  for (std::int32_t bin = 200; bin < 600; bin += 13)
    ions.push_back({bin_center(bin), FragmentIon::Type::kB, 1});
  build_ion_ladder(ions, kBinWidth, ladder);
  EXPECT_NEAR(xcorr(context, ladder), 0.0, 1e-3);
}

TEST(Xcorr, EngineRequiresXcorrContext) {
  // score_candidate under kXcorr on a context prepared without enable_xcorr
  // must refuse rather than silently score 0 — the engine's prepare() wires
  // it, but a hand-built QueryContext might not.
  const EngineWorkload& w = engine_workload();
  SearchConfig config;
  config.model = ScoreModel::kXcorr;
  const SearchEngine engine(config);
  const PreparedQueries prepared = engine.prepare(w.queries);
  ASSERT_FALSE(prepared.contexts.empty());
  EXPECT_NE(prepared.contexts.front().xcorr(), nullptr)
      << "prepare() must build the Xcorr context under ScoreModel::kXcorr";
}

}  // namespace
}  // namespace msp
