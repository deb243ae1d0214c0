// Tests for the serial search kernel: candidate generation correctness
// (against a brute-force reference), partitioning, packing, and the engine's
// determinism guarantees.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "core/packdb.hpp"
#include "core/partition.hpp"
#include "core/protein_inference.hpp"
#include "core/refinement.hpp"
#include "core/search_engine.hpp"
#include "dbgen/protein_gen.hpp"
#include "dbgen/query_gen.hpp"
#include "io/fasta.hpp"
#include "io/wire_record.hpp"
#include "mass/amino_acid.hpp"
#include "util/error.hpp"

namespace msp {
namespace {

SearchConfig test_config() {
  SearchConfig config;
  config.tolerance_da = 3.0;
  config.tau = 5;
  config.min_candidate_length = 4;
  config.max_candidate_length = 50;
  config.model = ScoreModel::kSharedPeak;  // hand-checkable
  return config;
}

ProteinDatabase small_db() {
  ProteinGenOptions options;
  options.sequence_count = 40;
  options.mean_length = 120;
  options.seed = 31;
  return generate_proteins(options);
}

std::vector<Spectrum> small_queries(const ProteinDatabase& db,
                                    std::size_t count = 12) {
  QueryGenOptions options;
  options.query_count = count;
  options.digest.min_length = 6;
  options.digest.max_length = 20;
  return spectra_of(generate_queries(db, options));
}

// Brute-force candidate enumeration straight from the paper's definition.
struct BruteCandidate {
  std::string protein_id;
  std::uint32_t length;
  FragmentEnd end;
};

std::vector<BruteCandidate> brute_candidates(const ProteinDatabase& db,
                                             double query_mass,
                                             const SearchConfig& config) {
  std::vector<BruteCandidate> out;
  for (const Protein& protein : db.proteins) {
    const std::size_t len = protein.residues.size();
    const std::size_t max_k = std::min(len, config.max_candidate_length);
    for (std::size_t k = config.min_candidate_length; k <= max_k; ++k) {
      const std::string prefix = protein.residues.substr(0, k);
      if (std::abs(peptide_mass(prefix) - query_mass) <= config.tolerance_da)
        out.push_back({protein.id, static_cast<std::uint32_t>(k),
                       FragmentEnd::kPrefix});
      if (k < len) {
        const std::string suffix = protein.residues.substr(len - k);
        if (std::abs(peptide_mass(suffix) - query_mass) <= config.tolerance_da)
          out.push_back({protein.id, static_cast<std::uint32_t>(k),
                         FragmentEnd::kSuffix});
      }
    }
  }
  return out;
}

// ---------- candidate generation ----------

TEST(Engine, CandidateCountsMatchBruteForce) {
  const SearchConfig config = test_config();
  const SearchEngine engine(config);
  const ProteinDatabase db = small_db();
  const auto queries = small_queries(db);
  const PreparedQueries prepared = engine.prepare(queries);

  std::vector<std::uint64_t> per_query(queries.size(), 0);
  auto tops = engine.make_tops(queries.size());
  engine.search_shard(db, prepared, tops, &per_query);

  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto brute =
        brute_candidates(db, prepared.masses[q], config);
    EXPECT_EQ(per_query[q], brute.size()) << "query " << q;
  }
}

TEST(Engine, CandidateMassesWithinWindow) {
  const SearchConfig config = test_config();
  const SearchEngine engine(config);
  const ProteinDatabase db = small_db();
  const auto queries = small_queries(db);
  const PreparedQueries prepared = engine.prepare(queries);
  auto tops = engine.make_tops(queries.size());
  engine.search_shard(db, prepared, tops);
  const QueryHits hits = engine.finalize(tops);
  for (std::size_t q = 0; q < hits.size(); ++q)
    for (const Hit& hit : hits[q]) {
      EXPECT_LE(std::abs(hit.mass - prepared.masses[q]),
                config.tolerance_da + 1e-9);
      EXPECT_GE(hit.length, config.min_candidate_length);
      EXPECT_LE(hit.length, config.max_candidate_length);
      EXPECT_NEAR(peptide_mass(hit.peptide), hit.mass, 1e-6);
    }
}

TEST(Engine, FullSequenceCountedOnceAsPrefix) {
  // A database sequence whose full length is in the window must appear as a
  // prefix candidate only (no duplicate suffix of the same span).
  SearchConfig config = test_config();
  config.min_candidate_length = 2;
  const SearchEngine engine(config);
  ProteinDatabase db;
  db.proteins.push_back({"tiny", "GGGG"});  // mass known
  const double mass = peptide_mass("GGGG");
  Spectrum query({{100.0, 1.0}}, mz_from_mass(mass, 1), 1, "q");
  const std::vector<Spectrum> queries{query};
  const PreparedQueries prepared = engine.prepare(queries);
  std::vector<std::uint64_t> per_query(1, 0);
  auto tops = engine.make_tops(1);
  engine.search_shard(db, prepared, tops, &per_query);
  const QueryHits hits = engine.finalize(tops);
  std::size_t full_length_hits = 0;
  for (const Hit& hit : hits[0])
    if (hit.length == 4) ++full_length_hits;
  EXPECT_EQ(full_length_hits, 1u);
  EXPECT_EQ(hits[0][0].end, FragmentEnd::kPrefix);
}

TEST(Engine, EmptyInputsAreFine) {
  const SearchEngine engine(test_config());
  const ProteinDatabase db = small_db();
  const std::vector<Spectrum> no_queries;
  const PreparedQueries prepared = engine.prepare(no_queries);
  auto tops = engine.make_tops(0);
  const auto stats = engine.search_shard(db, prepared, tops);
  EXPECT_EQ(stats.candidates_evaluated, 0u);

  const auto queries = small_queries(db, 3);
  const PreparedQueries prepared2 = engine.prepare(queries);
  auto tops2 = engine.make_tops(3);
  const auto stats2 = engine.search_shard(ProteinDatabase{}, prepared2, tops2);
  EXPECT_EQ(stats2.candidates_evaluated, 0u);
}

TEST(Engine, ShardDecompositionEqualsWholeDatabase) {
  // Property at the heart of Algorithm A: searching shards one at a time
  // into the same tops produces exactly the whole-database result.
  const SearchConfig config = test_config();
  const SearchEngine engine(config);
  const ProteinDatabase db = small_db();
  const auto queries = small_queries(db);
  const PreparedQueries prepared = engine.prepare(queries);

  auto whole_tops = engine.make_tops(queries.size());
  engine.search_shard(db, prepared, whole_tops);
  const QueryHits whole = engine.finalize(whole_tops);

  for (int p : {2, 3, 7}) {
    const auto shards = partition_by_residues(db, p);
    auto tops = engine.make_tops(queries.size());
    for (const auto& shard : shards) engine.search_shard(shard, prepared, tops);
    const QueryHits pieces = engine.finalize(tops);
    ASSERT_EQ(pieces.size(), whole.size());
    for (std::size_t q = 0; q < whole.size(); ++q)
      EXPECT_EQ(pieces[q], whole[q]) << "p=" << p << " query " << q;
  }
}

TEST(Engine, ScoreCutoffFiltersReports) {
  SearchConfig config = test_config();
  config.score_cutoff = 1e9;  // nothing clears this
  const SearchEngine engine(config);
  const ProteinDatabase db = small_db();
  const auto queries = small_queries(db, 4);
  const QueryHits hits = engine.search(db, queries);
  for (const auto& list : hits) EXPECT_TRUE(list.empty());
}

TEST(Engine, TauLimitsHitListLength) {
  for (std::size_t tau : {1u, 3u, 10u}) {
    SearchConfig config = test_config();
    config.tau = tau;
    const SearchEngine engine(config);
    const ProteinDatabase db = small_db();
    const auto queries = small_queries(db, 6);
    const QueryHits hits = engine.search(db, queries);
    for (const auto& list : hits) {
      EXPECT_LE(list.size(), tau);
      EXPECT_TRUE(std::is_sorted(list.begin(), list.end(),
                                 TopK<Hit>::better));
    }
  }
}

TEST(Engine, AllScoreModelsRankTruePeptideFirst) {
  // Implanted-peptide sanity for every scoring model: with mild noise the
  // true peptide should top the list for most queries.
  const ProteinDatabase db = small_db();
  QueryGenOptions qopts;
  qopts.query_count = 15;
  qopts.noise.peak_dropout = 0.1;
  qopts.noise.noise_peaks_per_100da = 0.5;
  const auto generated = generate_queries(db, qopts);
  const auto queries = spectra_of(generated);

  for (ScoreModel model : {ScoreModel::kLikelihood, ScoreModel::kHyperscore,
                           ScoreModel::kSharedPeak}) {
    SearchConfig config = test_config();
    config.model = model;
    config.tau = 10;
    const SearchEngine engine(config);
    const QueryHits hits = engine.search(db, queries);
    std::size_t recovered = 0;
    for (std::size_t q = 0; q < hits.size(); ++q) {
      for (const Hit& hit : hits[q]) {
        if (hit.peptide.find(generated[q].true_peptide) != std::string::npos ||
            generated[q].true_peptide.find(hit.peptide) != std::string::npos) {
          ++recovered;
          break;
        }
      }
    }
    EXPECT_GE(recovered, hits.size() / 2)
        << "model " << static_cast<int>(model);
  }
}

// ---------- tryptic candidate extension ----------

TEST(Engine, TrypticCandidateCountsMatchBruteForce) {
  SearchConfig config = test_config();
  config.candidate_mode = CandidateMode::kTryptic;
  config.candidate_missed_cleavages = 2;
  const SearchEngine engine(config);
  const ProteinDatabase db = small_db();
  QueryGenOptions q_options;
  q_options.query_count = 8;
  q_options.anchored_only = false;
  const auto queries = spectra_of(generate_queries(db, q_options));
  const PreparedQueries prepared = engine.prepare(queries);

  std::vector<std::uint64_t> per_query(queries.size(), 0);
  auto tops = engine.make_tops(queries.size());
  engine.search_shard(db, prepared, tops, &per_query);

  for (std::size_t q = 0; q < queries.size(); ++q) {
    std::uint64_t brute = 0;
    for (const Protein& protein : db.proteins) {
      DigestOptions digest;
      digest.min_length = config.min_candidate_length;
      digest.max_length =
          std::min(protein.residues.size(), config.max_candidate_length);
      if (digest.max_length < digest.min_length) continue;
      digest.missed_cleavages = config.candidate_missed_cleavages;
      for (const auto& peptide : digest_tryptic(protein.residues, digest)) {
        const double mass =
            peptide_mass(peptide_string(protein.residues, peptide));
        if (std::abs(mass - prepared.masses[q]) <= config.tolerance_da)
          ++brute;
      }
    }
    EXPECT_EQ(per_query[q], brute) << "query " << q;
  }
}

TEST(Engine, TrypticModeRecoversInternalPeptides) {
  SearchConfig config = test_config();
  config.candidate_mode = CandidateMode::kTryptic;
  config.model = ScoreModel::kLikelihood;
  config.tau = 5;
  const SearchEngine engine(config);
  const ProteinDatabase db = small_db();
  QueryGenOptions q_options;
  q_options.query_count = 15;
  q_options.anchored_only = false;  // internal peptides allowed
  q_options.noise.peak_dropout = 0.1;
  const auto generated = generate_queries(db, q_options);
  const QueryHits hits = engine.search(db, spectra_of(generated));
  std::size_t recovered = 0;
  for (std::size_t q = 0; q < hits.size(); ++q) {
    for (const Hit& hit : hits[q]) {
      if (hit.peptide.find(generated[q].true_peptide) != std::string::npos ||
          generated[q].true_peptide.find(hit.peptide) != std::string::npos) {
        ++recovered;
        break;
      }
    }
  }
  EXPECT_GE(recovered, hits.size() * 7 / 10);
}

TEST(Engine, TrypticShardDecompositionEqualsWhole) {
  SearchConfig config = test_config();
  config.candidate_mode = CandidateMode::kTryptic;
  const SearchEngine engine(config);
  const ProteinDatabase db = small_db();
  const auto queries = small_queries(db, 6);
  const QueryHits whole = engine.search(db, queries);
  const PreparedQueries prepared = engine.prepare(queries);
  auto tops = engine.make_tops(queries.size());
  for (const auto& shard : partition_by_residues(db, 5))
    engine.search_shard(shard, prepared, tops);
  const QueryHits pieces = engine.finalize(tops);
  for (std::size_t q = 0; q < whole.size(); ++q)
    EXPECT_EQ(pieces[q], whole[q]) << "query " << q;
}

// ---------- charge-state hypotheses ----------

TEST(Engine, AlternateChargeRecoversMisassignedPrecursor) {
  // The instrument measured a 2+ precursor but the file claims 1+: the
  // reported parent mass is ~half the true one, so the plain search
  // misses. Searching charge hypotheses {1,2,3} recovers it.
  const ProteinDatabase db = small_db();
  QueryGenOptions q_options;
  q_options.query_count = 10;
  q_options.noise.charge = 2;  // true charge
  const auto generated = generate_queries(db, q_options);

  std::vector<Spectrum> mislabeled;
  for (const GeneratedQuery& query : generated) {
    // Same peaks and precursor m/z, charge field overwritten to 1.
    mislabeled.emplace_back(query.spectrum.peaks(),
                            query.spectrum.precursor_mz(), 1,
                            query.spectrum.title());
  }

  SearchConfig plain = test_config();
  plain.model = ScoreModel::kLikelihood;
  SearchConfig multi = plain;
  multi.try_alternate_charges = true;
  multi.charge_hypotheses = {1, 2, 3};

  auto recovered_with = [&](const SearchConfig& config) {
    const QueryHits hits = SearchEngine(config).search(db, mislabeled);
    std::size_t recovered = 0;
    for (std::size_t q = 0; q < hits.size(); ++q)
      for (const Hit& hit : hits[q])
        if (hit.peptide.find(generated[q].true_peptide) != std::string::npos ||
            generated[q].true_peptide.find(hit.peptide) != std::string::npos) {
          ++recovered;
          break;
        }
    return recovered;
  };
  EXPECT_EQ(recovered_with(plain), 0u);          // wrong mass window
  EXPECT_GE(recovered_with(multi), 8u);          // hypothesis z=2 matches
}

TEST(Engine, AlternateChargesAreSupersetOfPlainSearch) {
  const ProteinDatabase db = small_db();
  const auto queries = small_queries(db, 8);
  SearchConfig plain = test_config();
  SearchConfig multi = plain;
  multi.try_alternate_charges = true;
  multi.charge_hypotheses = {2};  // queries report charge 2 → same window

  const QueryHits a = SearchEngine(plain).search(db, queries);
  const QueryHits b = SearchEngine(multi).search(db, queries);
  // Identical hypothesis set → identical hits.
  for (std::size_t q = 0; q < a.size(); ++q) EXPECT_EQ(a[q], b[q]);
}

TEST(Engine, RejectsBadChargeHypotheses) {
  const ProteinDatabase db = small_db();
  const auto queries = small_queries(db, 2);
  SearchConfig config = test_config();
  config.try_alternate_charges = true;
  config.charge_hypotheses = {0};
  const SearchEngine engine(config);
  EXPECT_THROW(engine.prepare(queries), InvalidArgument);
}

// ---------- spectral-library hybrid scoring ----------

TEST(Engine, LibraryNeverHurtsAndCanRescueRecovery) {
  const ProteinDatabase db = small_db();
  QueryGenOptions q_options;
  q_options.query_count = 20;
  q_options.noise.peak_dropout = 0.5;
  q_options.noise.noise_peaks_per_100da = 5.0;
  q_options.noise.fragmentation_sigma = 1.4;  // sequence-specific pattern
  const auto generated = generate_queries(db, q_options);
  const auto queries = spectra_of(generated);

  // Library entries for every query's true peptide, from replicates.
  SpectralLibrary library;
  SpectrumNoiseModel replicate_noise;
  replicate_noise.peak_dropout = 0.25;
  replicate_noise.fragmentation_sigma = 1.4;
  for (const GeneratedQuery& query : generated) {
    std::vector<Spectrum> replicates;
    for (int r = 0; r < 6; ++r) {
      Xoshiro256 rng(40000 + static_cast<std::uint64_t>(r) * 997 +
                     std::hash<std::string>{}(query.true_peptide));
      replicates.push_back(
          simulate_spectrum(query.true_peptide, replicate_noise, rng));
    }
    library.add_replicates(query.true_peptide, replicates);
  }

  SearchConfig model_only = test_config();
  model_only.model = ScoreModel::kLikelihood;
  model_only.tau = 1;
  SearchConfig hybrid = model_only;
  hybrid.library = &library;

  auto recovered_with = [&](const SearchConfig& config) {
    const QueryHits hits = SearchEngine(config).search(db, queries);
    std::size_t recovered = 0;
    for (std::size_t q = 0; q < hits.size(); ++q)
      if (!hits[q].empty() &&
          (hits[q][0].peptide.find(generated[q].true_peptide) !=
               std::string::npos ||
           generated[q].true_peptide.find(hits[q][0].peptide) !=
               std::string::npos))
        ++recovered;
    return recovered;
  };
  const std::size_t base = recovered_with(model_only);
  const std::size_t with_library = recovered_with(hybrid);
  EXPECT_GE(with_library, base);  // max() hybrid can only help
}

TEST(Engine, LibraryIgnoredByNonLikelihoodModels) {
  const ProteinDatabase db = small_db();
  const auto queries = small_queries(db, 4);
  SpectralLibrary library;  // empty is fine — pointer presence is the test
  SearchConfig config = test_config();
  config.model = ScoreModel::kHyperscore;
  SearchConfig with_library = config;
  with_library.library = &library;
  const QueryHits a = SearchEngine(config).search(db, queries);
  const QueryHits b = SearchEngine(with_library).search(db, queries);
  for (std::size_t q = 0; q < a.size(); ++q) EXPECT_EQ(a[q], b[q]);
}

// ---------- prefilter (the X!!Tandem-style aggressive screen) ----------

TEST(Engine, PrefilterReducesFullyScoredCandidates) {
  const ProteinDatabase db = small_db();
  const auto queries = small_queries(db);
  SearchConfig plain_config = test_config();
  plain_config.model = ScoreModel::kHyperscore;
  SearchConfig filtered_config = plain_config;
  filtered_config.prefilter = true;
  filtered_config.prefilter_min_shared_peaks = 4;

  const SearchEngine plain(plain_config);
  const SearchEngine filtered(filtered_config);
  const PreparedQueries prepared = plain.prepare(queries);

  auto plain_tops = plain.make_tops(queries.size());
  const ShardSearchStats plain_stats =
      plain.search_shard(db, prepared, plain_tops);
  auto filtered_tops = filtered.make_tops(queries.size());
  const ShardSearchStats filtered_stats =
      filtered.search_shard(db, prepared, filtered_tops);

  EXPECT_EQ(plain_stats.candidates_prefiltered, 0u);
  EXPECT_GT(filtered_stats.candidates_prefiltered, 0u);
  EXPECT_LT(filtered_stats.candidates_evaluated,
            plain_stats.candidates_evaluated);
  // Screen + full = the same windowed candidate population.
  EXPECT_EQ(filtered_stats.candidates_evaluated +
                filtered_stats.candidates_prefiltered,
            plain_stats.candidates_evaluated);
}

TEST(Engine, PrefilterSurvivorsScoreIdentically) {
  // Any hit reported by the prefiltered engine must also exist, with the
  // identical score, in the unfiltered engine's output.
  const ProteinDatabase db = small_db();
  const auto queries = small_queries(db);
  SearchConfig config = test_config();
  config.model = ScoreModel::kLikelihood;
  config.tau = 20;
  SearchConfig filtered_config = config;
  filtered_config.prefilter = true;

  const QueryHits full = SearchEngine(config).search(db, queries);
  const QueryHits filtered = SearchEngine(filtered_config).search(db, queries);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    for (const Hit& hit : filtered[q]) {
      const bool found = std::any_of(
          full[q].begin(), full[q].end(), [&](const Hit& other) {
            return other == hit;
          });
      EXPECT_TRUE(found) << "query " << q << " peptide " << hit.peptide;
    }
    EXPECT_LE(filtered[q].size(), full[q].size());
  }
}

TEST(Engine, AggressivePrefilterLosesTrueHits) {
  // The paper's accusation made concrete: with a harsh screen on noisy
  // spectra, fewer implanted peptides survive to be scored at all.
  const ProteinDatabase db = small_db();
  QueryGenOptions q_options;
  q_options.query_count = 30;
  q_options.noise.peak_dropout = 0.45;  // noisy: many true ions missing
  q_options.noise.noise_peaks_per_100da = 3.0;
  const auto generated = generate_queries(db, q_options);
  const auto queries = spectra_of(generated);

  SearchConfig accurate = test_config();
  accurate.model = ScoreModel::kLikelihood;
  SearchConfig harsh = accurate;
  harsh.prefilter = true;
  harsh.prefilter_min_shared_peaks = 8;  // aggressive

  auto recovered_with = [&](const SearchConfig& config) {
    const QueryHits hits = SearchEngine(config).search(db, queries);
    std::size_t recovered = 0;
    for (std::size_t q = 0; q < hits.size(); ++q)
      for (const Hit& hit : hits[q])
        if (hit.peptide.find(generated[q].true_peptide) != std::string::npos ||
            generated[q].true_peptide.find(hit.peptide) != std::string::npos) {
          ++recovered;
          break;
        }
    return recovered;
  };
  EXPECT_LT(recovered_with(harsh), recovered_with(accurate));
}

TEST(Engine, RejectsBadConfig) {
  SearchConfig config = test_config();
  config.tolerance_da = 0.0;
  EXPECT_THROW(SearchEngine{config}, InvalidArgument);
  config = test_config();
  config.tau = 0;
  EXPECT_THROW(SearchEngine{config}, InvalidArgument);
  config = test_config();
  config.min_candidate_length = 1;
  EXPECT_THROW(SearchEngine{config}, InvalidArgument);
}

// ---------- two-pass refinement ----------

TEST(Refinement, ShortlistCoversTrueSourceProteins) {
  const ProteinDatabase db = small_db();
  QueryGenOptions q_options;
  q_options.query_count = 15;
  q_options.noise.peak_dropout = 0.15;
  const auto generated = generate_queries(db, q_options);
  const auto queries = spectra_of(generated);

  RefinementOptions options;
  options.max_refined_proteins = 15;
  const RefinementResult result = run_refinement(db, queries, options);
  EXPECT_LE(result.shortlisted_proteins, 15u);
  EXPECT_GT(result.shortlisted_proteins, 0u);

  // Most true peptides survive into the refined (pass-2) hits.
  std::size_t recovered = 0;
  for (std::size_t q = 0; q < queries.size(); ++q)
    for (const Hit& hit : result.hits[q])
      if (hit.peptide.find(generated[q].true_peptide) != std::string::npos ||
          generated[q].true_peptide.find(hit.peptide) != std::string::npos) {
        ++recovered;
        break;
      }
  EXPECT_GE(recovered, queries.size() * 7 / 10);
}

TEST(Refinement, SecondPassCostIsMuchSmaller) {
  const ProteinDatabase db = small_db();
  const auto queries = small_queries(db, 10);
  RefinementOptions options;
  options.max_refined_proteins = 5;
  const RefinementResult result = run_refinement(db, queries, options);
  // Pass 2 fully scores far fewer candidates than a whole-database pass:
  // compare against the unrefined accurate engine.
  const SearchEngine accurate(options.second_pass);
  const PreparedQueries prepared = accurate.prepare(queries);
  auto tops = accurate.make_tops(queries.size());
  const ShardSearchStats full = accurate.search_shard(db, prepared, tops);
  EXPECT_LT(result.second_pass_stats.candidates_evaluated,
            full.candidates_evaluated / 2);
  // And pass 1 screened aggressively (its whole point).
  EXPECT_GT(result.first_pass_stats.candidates_prefiltered, 0u);
}

TEST(Refinement, HitsAgreeWithAccurateEngineOnShortlistedProteins) {
  const ProteinDatabase db = small_db();
  const auto queries = small_queries(db, 8);
  RefinementOptions options;
  const RefinementResult refined = run_refinement(db, queries, options);

  const SearchEngine accurate(options.second_pass);
  const QueryHits full = accurate.search(db, queries);
  // Every refined hit must appear with the identical score in the full
  // accurate search (refinement only restricts the protein set).
  for (std::size_t q = 0; q < queries.size(); ++q)
    for (const Hit& hit : refined.hits[q]) {
      const bool found =
          std::any_of(full[q].begin(), full[q].end(),
                      [&](const Hit& other) { return other == hit; });
      // Absent only if the full list's tau cut it; then the refined hit
      // scores no better than the full list's worst.
      if (!found && full[q].size() >= options.second_pass.tau) {
        EXPECT_LE(hit.score, full[q].back().score + 1e-12);
      }
    }
}

TEST(Refinement, RejectsEmptyShortlistBudget) {
  const ProteinDatabase db = small_db();
  const auto queries = small_queries(db, 2);
  RefinementOptions options;
  options.max_refined_proteins = 0;
  EXPECT_THROW(run_refinement(db, queries, options), InvalidArgument);
}

// ---------- protein inference ----------

QueryHits fake_hits() {
  auto hit = [](double score, const char* protein, const char* peptide) {
    Hit h;
    h.score = score;
    h.protein_id = protein;
    h.peptide = peptide;
    return h;
  };
  QueryHits hits;
  hits.push_back({hit(10, "A", "PEPK"), hit(9, "B", "XXXK")});
  hits.push_back({hit(8, "A", "GGGR"), hit(7, "C", "YYYK")});
  hits.push_back({hit(6, "A", "PEPK")});  // repeat peptide for A
  hits.push_back({hit(5, "B", "ZZZK")});
  hits.push_back({});  // query with no hits
  return hits;
}

TEST(ProteinInference, AggregatesBestHitsPerQuery) {
  const auto proteins = infer_proteins(fake_hits());
  ASSERT_EQ(proteins.size(), 2u);  // rank-1 hits only: A (3 PSMs), B (1)
  EXPECT_EQ(proteins[0].protein_id, "A");
  EXPECT_EQ(proteins[0].psm_count, 3u);
  EXPECT_EQ(proteins[0].distinct_peptides, 2u);  // PEPK counted once
  EXPECT_DOUBLE_EQ(proteins[0].best_score, 10.0);
  EXPECT_DOUBLE_EQ(proteins[0].score_sum, 24.0);
  EXPECT_EQ(proteins[1].protein_id, "B");
  EXPECT_EQ(proteins[1].distinct_peptides, 1u);
}

TEST(ProteinInference, DeeperRanksAndScoreCutoff) {
  InferenceOptions options;
  options.max_hit_rank = 2;
  auto proteins = infer_proteins(fake_hits(), options);
  ASSERT_EQ(proteins.size(), 3u);  // C appears at rank 2
  options.min_score = 7.5;
  proteins = infer_proteins(fake_hits(), options);
  // Only scores >= 7.5 survive: A(10), B(9), A(8).
  ASSERT_EQ(proteins.size(), 2u);
  EXPECT_EQ(proteins[0].protein_id, "A");
  EXPECT_EQ(proteins[0].psm_count, 2u);
}

TEST(ProteinInference, ConfidentFilterDropsOneHitWonders) {
  const auto confident = confident_proteins(fake_hits(), 2);
  ASSERT_EQ(confident.size(), 1u);
  EXPECT_EQ(confident[0].protein_id, "A");
}

TEST(ProteinInference, EndToEndRecoversSourceProteins) {
  // Queries drawn from a handful of proteins: inference should rank those
  // source proteins (with >= 2 peptides each) at the top.
  const ProteinDatabase db = small_db();
  QueryGenOptions q_options;
  q_options.query_count = 24;
  q_options.seed = 99;
  q_options.noise.peak_dropout = 0.1;
  const auto generated = generate_queries(db, q_options);
  SearchConfig config = test_config();
  config.model = ScoreModel::kLikelihood;
  config.tau = 1;
  const QueryHits hits = SearchEngine(config).search(db, spectra_of(generated));
  const auto proteins = infer_proteins(hits);

  std::set<std::string> true_sources;
  for (const GeneratedQuery& query : generated)
    true_sources.insert(db.proteins[query.source_protein].id);
  std::size_t top_matches = 0;
  for (std::size_t i = 0; i < proteins.size() && i < true_sources.size(); ++i)
    if (true_sources.count(proteins[i].protein_id)) ++top_matches;
  EXPECT_GE(top_matches, true_sources.size() * 6 / 10);
}

TEST(ProteinInference, RejectsBadOptions) {
  InferenceOptions options;
  options.max_hit_rank = 0;
  EXPECT_THROW(infer_proteins({}, options), InvalidArgument);
}

// ---------- pack / partition ----------

TEST(PackDb, RoundTrip) {
  const ProteinDatabase db = small_db();
  const std::vector<char> bytes = pack_database(db);
  const ProteinDatabase back = unpack_database(bytes);
  ASSERT_EQ(back.sequence_count(), db.sequence_count());
  for (std::size_t i = 0; i < db.sequence_count(); ++i) {
    EXPECT_EQ(back.proteins[i].id, db.proteins[i].id);
    EXPECT_EQ(back.proteins[i].residues, db.proteins[i].residues);
  }
}

TEST(PackDb, EmptyDatabase) {
  const std::vector<char> bytes = pack_database(ProteinDatabase{});
  EXPECT_EQ(unpack_database(bytes).sequence_count(), 0u);
}

TEST(PackDb, RejectsCorruptBytes) {
  const ProteinDatabase db = small_db();
  std::vector<char> bytes = pack_database(db);
  bytes.resize(bytes.size() / 2);  // truncate mid-record
  EXPECT_THROW(unpack_database(bytes), IoError);
}

TEST(PackSpectra, RoundTrip) {
  const ProteinDatabase db = small_db();
  const auto queries = small_queries(db, 5);
  const std::vector<char> bytes = pack_spectra(queries);
  const auto back = unpack_spectra(bytes);
  ASSERT_EQ(back.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(back[i].title(), queries[i].title());
    EXPECT_EQ(back[i].charge(), queries[i].charge());
    EXPECT_DOUBLE_EQ(back[i].precursor_mz(), queries[i].precursor_mz());
    ASSERT_EQ(back[i].size(), queries[i].size());
    for (std::size_t k = 0; k < back[i].size(); ++k)
      EXPECT_DOUBLE_EQ(back[i].peaks()[k].mz, queries[i].peaks()[k].mz);
  }
}

// Pack images are machine-written: out-of-domain values are wire corruption
// and must be rejected at load with IoError, never "filtered as noise" the
// way the Spectrum constructor treats instrument data. The +Inf / absurd
// m/z cases are the load-bearing ones — they would survive the noise filter
// and drive the binned-grid allocation out of memory downstream.
TEST(PackSpectra, RejectsOutOfDomainValues) {
  struct Corruption {
    const char* label;
    double precursor;
    int charge;
    double mz;
    double intensity;
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const Corruption cases[] = {
      {"non-finite precursor", kNan, 2, 500.0, 1.0},
      {"infinite precursor", kInf, 2, 500.0, 1.0},
      {"non-positive precursor", -3.0, 2, 500.0, 1.0},
      {"zero charge", 700.0, 0, 500.0, 1.0},
      {"negative charge", 700.0, -2, 500.0, 1.0},
      {"NaN peak m/z", 700.0, 2, kNan, 1.0},
      {"infinite peak m/z", 700.0, 2, kInf, 1.0},
      {"absurd peak m/z", 700.0, 2, kMaxPackedPeakMz * 2, 1.0},
      {"non-positive peak m/z", 700.0, 2, -1.0, 1.0},
      {"NaN intensity", 700.0, 2, 500.0, kNan},
      {"infinite intensity", 700.0, 2, 500.0, kInf},
      {"negative intensity", 700.0, 2, 500.0, -1.0},
  };
  for (const Corruption& corruption : cases) {
    wire::Writer writer;
    writer.put_u64(1);
    writer.put_string("q");
    writer.put_double(corruption.precursor);
    writer.put_i32(corruption.charge);
    writer.put_u32(1);
    writer.put_double(corruption.mz);
    writer.put_double(corruption.intensity);
    EXPECT_THROW(unpack_spectra(writer.take()), IoError) << corruption.label;
  }
}

TEST(PackSpectra, RejectsCountsExceedingPayload) {
  // A huge spectrum count with a tiny payload must fail the bound check,
  // not reserve() terabytes; same for a huge per-spectrum peak count.
  {
    wire::Writer writer;
    writer.put_u64(std::numeric_limits<std::uint64_t>::max());
    EXPECT_THROW(unpack_spectra(writer.take()), IoError);
  }
  {
    wire::Writer writer;
    writer.put_u64(1);
    writer.put_string("q");
    writer.put_double(700.0);
    writer.put_i32(2);
    writer.put_u32(std::numeric_limits<std::uint32_t>::max());
    writer.put_double(500.0);
    writer.put_double(1.0);
    EXPECT_THROW(unpack_spectra(writer.take()), IoError);
  }
}

TEST(PackSpectra, BoundaryValuesSurviveTheLoadChecks) {
  // Legal extremes must round-trip: the validation rejects corruption, not
  // unusual-but-valid data.
  const Spectrum edge({{kMaxPackedPeakMz, 0.5}, {1e-3, 1e-42}}, 1e-6, 1,
                      "edge");
  const auto back = unpack_spectra(pack_spectra(std::vector{edge}));
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].charge(), 1);
  EXPECT_DOUBLE_EQ(back[0].precursor_mz(), 1e-6);
}

// ---------- partial-hit payloads (the query-transport merge) ----------

QueryHits sample_hits() {
  Hit first;
  first.score = 12.5;
  first.protein_id = "sp|P1|ONE";
  first.offset = 3;
  first.length = 9;
  first.end = FragmentEnd::kSuffix;
  first.mass = 1021.5;
  first.peptide = "PEPTIDEKR";
  Hit second = first;
  second.score = 7.25;
  second.protein_id = "sp|P2|TWO";
  second.end = FragmentEnd::kInternal;
  return {{first, second}, {}, {first}};
}

TEST(PackHits, RoundTrip) {
  const QueryHits hits = sample_hits();
  const QueryHits back = unpack_hits(pack_hits(hits));
  ASSERT_EQ(back.size(), hits.size());
  for (std::size_t q = 0; q < hits.size(); ++q) {
    ASSERT_EQ(back[q].size(), hits[q].size()) << "query " << q;
    for (std::size_t i = 0; i < hits[q].size(); ++i) {
      EXPECT_EQ(back[q][i], hits[q][i]);
      EXPECT_EQ(back[q][i].mass, hits[q][i].mass);
      EXPECT_EQ(back[q][i].peptide, hits[q][i].peptide);
    }
  }
  EXPECT_TRUE(unpack_hits(pack_hits({})).empty());
}

// A hostile partial-hit payload fails with an msp::Error from the decoder's
// own checks — never a std::length_error or std::bad_alloc from a count it
// forgot to bound (any other exception type fails the test). Offsets: the
// u64 list count, the first list's u32 hit count, then the first hit's
// score, protein id, offset and length ahead of its end marker.
TEST(PackHits, CorruptionMatrix) {
  const QueryHits hits = sample_hits();
  const std::vector<char> image = pack_hits(hits);
  const std::size_t end_at = 8 + 4 + 8 + 4 + hits[0][0].protein_id.size() + 8;
  const auto overwrite = [&](std::size_t offset, auto value) {
    std::vector<char> bytes = image;
    std::memcpy(bytes.data() + offset, &value, sizeof(value));
    return bytes;
  };
  std::vector<std::pair<std::string, std::vector<char>>> cases = {
      {"huge list count",
       overwrite(0, std::numeric_limits<std::uint64_t>::max())},
      {"huge hit count",
       overwrite(8, std::numeric_limits<std::uint32_t>::max())},
      {"bad end", overwrite(end_at, std::uint32_t{7})},
  };
  std::vector<char> trailing = image;
  trailing.push_back('\0');
  cases.emplace_back("trailing bytes", std::move(trailing));
  for (const std::size_t keep :
       {std::size_t{4}, std::size_t{10}, image.size() / 2, image.size() - 1})
    cases.emplace_back("truncated to " + std::to_string(keep),
                       std::vector<char>(image.begin(),
                                         image.begin() +
                                             static_cast<long>(keep)));
  for (const auto& [label, bytes] : cases) {
    try {
      (void)unpack_hits(bytes);
      ADD_FAILURE() << label << ": accepted";
    } catch (const Error&) {
    }
  }
}

// The indexed-shard decoder trusts nothing the kernel dereferences or
// merge-joins on: each hostile field of the index record is rejected with
// an IoError that names it. Offsets follow the version-2 layout: magic and
// version, the plain protein image, then mode, three u32 lengths, the four
// envelope doubles, the entry count and 21-byte entries.
TEST(PackDb, IndexDecoderRejectsHostileFields) {
  const ProteinDatabase db = small_db();
  const SearchConfig config = test_config();
  const CandidateIndex full = CandidateIndex::build(db, config);
  ASSERT_GT(full.size(), 100u);
  const double middle = full.entries()[full.size() / 2].mass;
  const MassEnvelope envelope{middle - 100.0, middle + 100.0, 3.0, 3.0};
  const CandidateIndex index = CandidateIndex::build(db, config, envelope);
  ASSERT_GT(index.size(), 3u);
  ASSERT_LT(index.entries().front().mass, index.entries().back().mass);
  const std::vector<char> image = pack_shard(db, index);
  ASSERT_NO_THROW(unpack_shard(image));

  const std::size_t index_at = 12 + pack_database(db).size();
  const std::size_t envelope_at = index_at + 13;
  const std::size_t count_at = envelope_at + 32;
  const auto entry_at = [&](std::size_t i) { return count_at + 8 + 21 * i; };
  // An entry whose residues run past max_length, so lengthening it to
  // max_length + 1 trips only the length-range check.
  std::size_t long_entry = 0;
  while (long_entry < index.size() &&
         index.entries()[long_entry].offset + config.max_candidate_length >=
         db.proteins[index.entries()[long_entry].protein].residues.size())
    ++long_entry;
  ASSERT_LT(long_entry, index.size());
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  struct Corruption {
    const char* label;
    std::size_t offset;
    std::vector<char> bytes;
    const char* names;  ///< substring the error message must contain
  };
  const auto as_bytes = [](auto value) {
    std::vector<char> bytes(sizeof(value));
    std::memcpy(bytes.data(), &value, sizeof(value));
    return bytes;
  };
  const Corruption cases[] = {
      {"protein count", 12,
       as_bytes(std::numeric_limits<std::uint64_t>::max()), "protein count"},
      {"candidate mode", index_at, as_bytes(std::uint8_t{9}),
       "candidate mode"},
      {"NaN envelope", envelope_at, as_bytes(kNan), "envelope range"},
      {"negative window", envelope_at + 16, as_bytes(-1.0), "windows"},
      {"entry count", count_at,
       as_bytes(std::numeric_limits<std::uint64_t>::max()), "entry count"},
      {"NaN mass", entry_at(0), as_bytes(kNan), "mass is not finite"},
      {"infinite mass", entry_at(0), as_bytes(kInf), "mass is not finite"},
      {"mass outside envelope", entry_at(0),
       as_bytes(envelope.hi + envelope.above + 1.0), "recorded envelope"},
      {"masses out of order", entry_at(0),
       as_bytes(index.entries().back().mass), "out of order"},
      {"protein ordinal", entry_at(0) + 8,
       as_bytes(static_cast<std::uint32_t>(db.proteins.size())),
       "protein ordinal"},
      {"offset", entry_at(0) + 12, as_bytes(std::uint32_t{1u << 20}),
       "offset + length"},
      {"length", entry_at(0) + 16,
       as_bytes(std::numeric_limits<std::uint32_t>::max()),
       "offset + length"},
      {"end", entry_at(0) + 20, as_bytes(std::uint8_t{7}), "end 7"},
      {"length 0", entry_at(0) + 16, as_bytes(std::uint32_t{0}),
       "length 0 outside [4, 50]"},
      {"length 1", entry_at(0) + 16, as_bytes(std::uint32_t{1}),
       "length 1 outside [4, 50]"},
      {"length over max", entry_at(long_entry) + 16,
       as_bytes(static_cast<std::uint32_t>(config.max_candidate_length + 1)),
       "length 51 outside [4, 50]"},
      {"minimum length", index_at + 1, as_bytes(std::uint32_t{1}),
       "minimum length 1"},
  };
  for (const Corruption& corruption : cases) {
    std::vector<char> bad = image;
    ASSERT_LE(corruption.offset + corruption.bytes.size(), bad.size());
    std::copy(corruption.bytes.begin(), corruption.bytes.end(),
              bad.begin() + static_cast<long>(corruption.offset));
    try {
      (void)unpack_shard(bad);
      ADD_FAILURE() << corruption.label << ": accepted";
    } catch (const IoError& error) {
      EXPECT_NE(std::string(error.what()).find(corruption.names),
                std::string::npos)
          << corruption.label << ": " << error.what();
    }
  }

  // A plain image bounds its protein count the same way.
  std::vector<char> plain = pack_database(db);
  const std::vector<char> huge =
      as_bytes(std::numeric_limits<std::uint64_t>::max());
  std::copy(huge.begin(), huge.end(), plain.begin());
  EXPECT_THROW(unpack_database(plain), IoError);

  // A fragment-index trailer must cover the index it ships behind.
  const FragmentIndex other = FragmentIndex::build(db, full, config.bin_width);
  std::vector<char> uncovered = pack_shard(db, index);
  uncovered.insert(uncovered.end(), other.bytes().begin(),
                   other.bytes().end());
  EXPECT_THROW(unpack_shard(uncovered), IoError);
}

// unpack_shard copies nothing: the protein strings, the candidate entries
// and the fragment postings of the view all lie inside the image it
// validated.
TEST(PackDb, ShardViewBorrowsThePayload) {
  const ProteinDatabase db = small_db();
  const SearchConfig config = test_config();
  const CandidateIndex index = CandidateIndex::build(db, config);
  const FragmentIndex fragment =
      FragmentIndex::build(db, index, config.bin_width);
  ASSERT_GT(fragment.posting_count(), 0u);
  const std::vector<char> image =
      pack_shard(db, index, config.bin_width).bytes;
  const ShardView view = unpack_shard(image);

  const char* const first = image.data();
  const char* const last = image.data() + image.size();
  const auto inside = [&](const void* at, std::size_t bytes) {
    const char* const begin = static_cast<const char*>(at);
    return begin >= first && begin + bytes <= last;
  };
  ASSERT_EQ(view.proteins.size(), db.proteins.size());
  for (const ProteinView& protein : view.proteins) {
    EXPECT_TRUE(inside(protein.id.data(), protein.id.size()));
    EXPECT_TRUE(inside(protein.residues.data(), protein.residues.size()));
  }
  ASSERT_EQ(view.entries.size(), index.size());
  EXPECT_TRUE(inside(view.entries.data(), view.entries.size_bytes()));
  ASSERT_TRUE(view.fragment.has_value());
  const wire::UnalignedSpan<std::uint32_t>& ordinals =
      view.fragment->ordinals;
  ASSERT_EQ(ordinals.size(), fragment.posting_count());
  EXPECT_TRUE(
      inside(ordinals.data(), ordinals.size() * sizeof(std::uint32_t)));
}

// An open-search image is the trailer-less image followed by the fragment
// index's MSPARFRG record: one head encoder, one CSR writer.
TEST(PackDb, ImageIsHeadPlusFragmentRecord) {
  const ProteinDatabase db = small_db();
  const SearchConfig config = test_config();
  const auto head_then_record = [&](const CandidateIndex& index,
                                    const FragmentIndex& fragment) {
    std::vector<char> bytes = pack_shard(db, index);
    bytes.insert(bytes.end(), fragment.bytes().begin(),
                 fragment.bytes().end());
    return bytes;
  };
  const CandidateIndex index = CandidateIndex::build(
      db, config, MassEnvelope{800.0, 1600.0, 3.0, 3.0});
  const FragmentIndex fragment =
      FragmentIndex::build(db, index, config.bin_width);
  ASSERT_GT(fragment.posting_count(), 0u);
  const ShardImage image = pack_shard(db, index, config.bin_width);
  EXPECT_EQ(image.bytes, head_then_record(index, fragment));
  EXPECT_EQ(image.postings, fragment.posting_count());

  // An empty index still packs an empty trailer.
  const CandidateIndex none = CandidateIndex::build(
      db, config, MassEnvelope{1.0, 0.0, 3.0, 3.0});
  ASSERT_TRUE(none.empty());
  const FragmentIndex empty_fragment =
      FragmentIndex::build(db, none, config.bin_width);
  EXPECT_FALSE(empty_fragment.bytes().empty());
  EXPECT_EQ(empty_fragment.posting_count(), 0u);
  const ShardImage empty = pack_shard(db, none, config.bin_width);
  EXPECT_EQ(empty.bytes, head_then_record(none, empty_fragment));
  EXPECT_EQ(empty.postings, 0u);
  const ShardView view = unpack_shard(empty.bytes);
  ASSERT_TRUE(view.fragment.has_value());
  EXPECT_EQ(view.fragment->bin_count(), 0u);
}

// The image's bytes, pinned: 64-bit FNV-1a digests of small_db()'s image
// over a clipped index, without and with the fragment trailer. A change to
// the MSPARIDX or MSPARFRG layout, or to what the encoders write into it,
// moves a digest.
TEST(PackDb, ImageBytesArePinned) {
  const ProteinDatabase db = small_db();
  const SearchConfig config = test_config();
  const CandidateIndex index = CandidateIndex::build(
      db, config, MassEnvelope{800.0, 1600.0, 3.0, 3.0});
  const auto fnv1a = [](const std::vector<char>& bytes) {
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char byte : bytes) {
      hash ^= static_cast<unsigned char>(byte);
      hash *= 0x100000001b3ull;
    }
    return hash;
  };
  const std::vector<char> bare = pack_shard(db, {index});
  const std::vector<char> open = pack_shard(db, index, config.bin_width).bytes;
  EXPECT_EQ(bare.size(), 17186u);
  EXPECT_EQ(fnv1a(bare), 0x1ecb43767f369e75ull);
  EXPECT_EQ(open.size(), 68095u);
  EXPECT_EQ(fnv1a(open), 0x8f0ebae3aaad18d8ull);
}

TEST(Partition, QueryBlocksCoverExactly) {
  for (std::size_t m : {0u, 1u, 10u, 97u}) {
    for (int p : {1, 2, 5, 16}) {
      std::size_t covered = 0;
      std::size_t expected_begin = 0;
      for (int r = 0; r < p; ++r) {
        const QueryRange range = query_block(m, r, p);
        EXPECT_EQ(range.begin, expected_begin);
        covered += range.count();
        expected_begin = range.end;
      }
      EXPECT_EQ(covered, m);
    }
  }
}

TEST(Partition, ResidueBalancedShards) {
  const ProteinDatabase db = small_db();
  const std::size_t total = db.total_residues();
  for (int p : {2, 4, 8}) {
    const auto shards = partition_by_residues(db, p);
    ASSERT_EQ(shards.size(), static_cast<std::size_t>(p));
    std::size_t covered_sequences = 0;
    for (const auto& shard : shards) {
      covered_sequences += shard.sequence_count();
      // No shard grossly over target (2x slack covers granularity).
      EXPECT_LE(shard.total_residues(),
                2 * total / static_cast<std::size_t>(p) + 4000);
    }
    EXPECT_EQ(covered_sequences, db.sequence_count());
  }
}

TEST(Partition, FastaShardLoadingMatchesDirectPartition) {
  const ProteinDatabase db = small_db();
  const std::string image = to_fasta_string(db);
  for (int p : {1, 3, 8}) {
    std::size_t total_loaded = 0;
    for (int r = 0; r < p; ++r)
      total_loaded += load_database_shard(image, r, p).sequence_count();
    EXPECT_EQ(total_loaded, db.sequence_count()) << "p=" << p;
  }
}

}  // namespace
}  // namespace msp
