// Property-based and fuzz tests across modules: parameterized sweeps of the
// validation invariants, plus robustness of every parser against arbitrary
// and truncated input (must throw IoError or succeed — never crash).
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/algorithm_a.hpp"
#include "core/packdb.hpp"
#include "core/partition.hpp"
#include "core/search_engine.hpp"
#include "dbgen/protein_gen.hpp"
#include "dbgen/query_gen.hpp"
#include "io/fasta.hpp"
#include "io/mgf.hpp"
#include "io/pkl.hpp"
#include "mass/digest.hpp"
#include "util/rng.hpp"

namespace msp {
namespace {

// ---------- engine invariants over the config space ----------

// (tolerance, tau, model): at every point, Algorithm A on 3 ranks equals
// the serial engine hit-for-hit, and all hits respect the mass window.
class ConfigSweep
    : public ::testing::TestWithParam<std::tuple<double, int, ScoreModel>> {};

TEST_P(ConfigSweep, ParallelEqualsSerialAndWindowHolds) {
  const auto [tolerance, tau, model] = GetParam();
  ProteinGenOptions db_options;
  db_options.sequence_count = 40;
  db_options.mean_length = 120;
  db_options.seed = 5150;
  const ProteinDatabase db = generate_proteins(db_options);
  const std::string image = to_fasta_string(db);
  QueryGenOptions q_options;
  q_options.query_count = 8;
  q_options.seed = 5151;
  const auto queries = spectra_of(generate_queries(db, q_options));

  SearchConfig config;
  config.tolerance_da = tolerance;
  config.tau = static_cast<std::size_t>(tau);
  config.min_candidate_length = 4;
  config.model = model;

  const SearchEngine engine(config);
  const QueryHits serial = engine.search(db, queries);
  const PreparedQueries prepared = engine.prepare(queries);

  const sim::Runtime runtime(3);
  const ParallelRunResult parallel =
      run_algorithm_a(runtime, image, queries, config);

  ASSERT_EQ(parallel.hits.size(), serial.size());
  for (std::size_t q = 0; q < serial.size(); ++q) {
    ASSERT_EQ(parallel.hits[q].size(), serial[q].size()) << "query " << q;
    for (std::size_t h = 0; h < serial[q].size(); ++h) {
      EXPECT_EQ(parallel.hits[q][h], serial[q][h]) << "query " << q;
      EXPECT_LE(std::abs(serial[q][h].mass - prepared.masses[q]),
                tolerance + 1e-9);
    }
    EXPECT_LE(serial[q].size(), static_cast<std::size_t>(tau));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Space, ConfigSweep,
    ::testing::Combine(::testing::Values(0.5, 3.0, 10.0),
                       ::testing::Values(1, 5, 50),
                       ::testing::Values(ScoreModel::kLikelihood,
                                         ScoreModel::kHyperscore,
                                         ScoreModel::kXcorr)));

// ---------- digestion invariants over random sequences ----------

class DigestSweep : public ::testing::TestWithParam<int> {};

TEST_P(DigestSweep, AllPeptidesHaveEnzymaticTermini) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()));
  std::string sequence;
  for (int i = 0; i < 200; ++i)
    sequence.push_back(residue_from_index(static_cast<int>(rng.bounded(20))));

  DigestOptions options;
  options.min_length = 2;
  options.max_length = 100;
  options.missed_cleavages = 2;
  for (const DigestedPeptide& peptide : digest_tryptic(sequence, options)) {
    // N-terminus: sequence start, or preceded by a cleavage site.
    if (peptide.offset != 0) {
      EXPECT_TRUE(is_tryptic_site(sequence, peptide.offset - 1))
          << "offset " << peptide.offset;
    }
    // C-terminus: sequence end, or itself a cleavage site.
    const std::size_t last = peptide.offset + peptide.length - 1;
    if (last + 1 != sequence.size()) {
      EXPECT_TRUE(is_tryptic_site(sequence, last)) << "last " << last;
    }
    // Missed-cleavage count matches the internal sites spanned.
    std::size_t internal_sites = 0;
    for (std::size_t i = peptide.offset; i < last; ++i)
      if (is_tryptic_site(sequence, i)) ++internal_sites;
    EXPECT_EQ(internal_sites, peptide.missed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DigestSweep, ::testing::Range(1, 9));

// ---------- mass invariants over random peptides ----------

TEST(MassProperty, IndexMatchesDirectMassForRandomPeptides) {
  Xoshiro256 rng(2718);
  for (int trial = 0; trial < 50; ++trial) {
    std::string peptide;
    const std::size_t length = 2 + rng.bounded(80);
    for (std::size_t i = 0; i < length; ++i)
      peptide.push_back(residue_from_index(static_cast<int>(rng.bounded(20))));
    const FragmentMassIndex index(peptide);
    const std::size_t k = 1 + rng.bounded(length);
    EXPECT_NEAR(index.prefix_mass(k), peptide_mass(peptide.substr(0, k)), 1e-8);
    EXPECT_NEAR(index.suffix_mass(k),
                peptide_mass(peptide.substr(length - k)), 1e-8);
    // Prefix + suffix of complementary lengths = whole + water.
    EXPECT_NEAR(index.prefix_mass(k) + index.suffix_mass(length - k),
                peptide_mass(peptide) + kWaterMass, 1e-8);
  }
}

// ---------- parser fuzzing: arbitrary input never crashes ----------

std::string random_bytes(Xoshiro256& rng, std::size_t max_length) {
  std::string bytes;
  const std::size_t length = rng.bounded(max_length);
  for (std::size_t i = 0; i < length; ++i)
    bytes.push_back(static_cast<char>(rng.bounded(256)));
  return bytes;
}

std::string random_texty(Xoshiro256& rng, std::size_t max_length) {
  static constexpr char kChars[] =
      ">ACDEFGHIKLMNPQRSTVWY \n\t0123456789.=+BEGINIONSEND";
  std::string text;
  const std::size_t length = rng.bounded(max_length);
  for (std::size_t i = 0; i < length; ++i)
    text.push_back(kChars[rng.bounded(sizeof(kChars) - 1)]);
  return text;
}

TEST(Fuzz, FastaParserNeverCrashes) {
  Xoshiro256 rng(101);
  for (int trial = 0; trial < 300; ++trial) {
    std::istringstream in(trial % 2 ? random_bytes(rng, 400)
                                    : random_texty(rng, 400));
    try {
      (void)read_fasta(in);
    } catch (const IoError&) {
      // malformed input is expected to throw, not crash
    }
  }
}

TEST(Fuzz, MgfParserNeverCrashes) {
  Xoshiro256 rng(102);
  for (int trial = 0; trial < 300; ++trial) {
    std::istringstream in(trial % 2 ? random_bytes(rng, 400)
                                    : random_texty(rng, 400));
    try {
      (void)read_mgf(in);
    } catch (const IoError&) {
    }
  }
}

TEST(Fuzz, PklParserNeverCrashes) {
  Xoshiro256 rng(103);
  for (int trial = 0; trial < 300; ++trial) {
    std::istringstream in(trial % 2 ? random_bytes(rng, 400)
                                    : random_texty(rng, 400));
    try {
      (void)read_pkl(in);
    } catch (const IoError&) {
    }
  }
}

// ---------- packed-database round trip ----------
// pack/unpack is the wire format every shard rotation — and, under crash
// recovery, every replica re-pull — rides on. Any database must survive the
// round trip losslessly.

TEST(PackedDatabase, RoundTripIsLosslessOnRandomDatabases) {
  Xoshiro256 rng(20260806);
  for (int trial = 0; trial < 25; ++trial) {
    ProteinGenOptions options;
    options.sequence_count = rng.bounded(40);  // includes empty databases
    options.mean_length = 40.0 + rng.uniform(0.0, 200.0);
    options.seed = rng();
    const ProteinDatabase db = generate_proteins(options);
    const std::vector<char> packed = pack_database(db);
    const ProteinDatabase back = unpack_database(packed);
    ASSERT_EQ(back.proteins.size(), db.proteins.size()) << "trial " << trial;
    for (std::size_t i = 0; i < db.proteins.size(); ++i) {
      EXPECT_EQ(back.proteins[i].id, db.proteins[i].id)
          << "trial " << trial << " protein " << i;
      EXPECT_EQ(back.proteins[i].residues, db.proteins[i].residues)
          << "trial " << trial << " protein " << i;
    }
    EXPECT_EQ(back.total_residues(), db.total_residues()) << "trial " << trial;
    // Packing the unpacked copy yields the identical byte stream.
    EXPECT_EQ(pack_database(back), packed) << "trial " << trial;
  }
}

TEST(PackedDatabase, RoundTripEdgeCases) {
  const ProteinDatabase empty;
  EXPECT_EQ(unpack_database(pack_database(empty)).proteins.size(), 0u);

  ProteinDatabase awkward;
  Protein spacey;
  spacey.id = "sp|P12345|TEST_HUMAN description with spaces";
  spacey.residues = "M";
  Protein blank;  // empty id and empty sequence still round-trip
  awkward.proteins = {spacey, blank};
  const ProteinDatabase back = unpack_database(pack_database(awkward));
  ASSERT_EQ(back.proteins.size(), 2u);
  EXPECT_EQ(back.proteins[0].id, spacey.id);
  EXPECT_EQ(back.proteins[0].residues, "M");
  EXPECT_TRUE(back.proteins[1].id.empty());
  EXPECT_TRUE(back.proteins[1].residues.empty());
}

TEST(Fuzz, PackedDatabaseTruncationsAlwaysThrowOrParse) {
  ProteinGenOptions options;
  options.sequence_count = 10;
  const ProteinDatabase db = generate_proteins(options);
  const std::vector<char> bytes = pack_database(db);
  for (std::size_t cut = 0; cut < bytes.size(); cut += 7) {
    std::vector<char> truncated(bytes.begin(),
                                bytes.begin() + static_cast<long>(cut));
    try {
      (void)unpack_database(truncated);
    } catch (const IoError&) {
    }
  }
}

// Every byte of a packed payload is untrusted: a bit flip anywhere — a
// plain protein list, a shard image's proteins, candidate index and its
// envelope or fragment-index trailer, or a partial-hit payload — either
// parses or fails with an msp::Error from the decoders' own checks, never
// a length_error or bad_alloc from a size field they forgot to bound.
TEST(Fuzz, PackedDatabaseBitFlipsNeverCrash) {
  ProteinGenOptions options;
  options.sequence_count = 6;
  const ProteinDatabase db = generate_proteins(options);
  SearchConfig config;
  config.min_candidate_length = 4;
  config.max_candidate_length = 12;
  const CandidateIndex index = CandidateIndex::build(
      db, config, MassEnvelope{600.0, 1200.0, 3.0, 3.0});
  Hit hit;
  hit.score = 3.5;
  hit.protein_id = db.proteins.front().id;
  hit.length = 6;
  hit.mass = 700.25;
  hit.peptide = db.proteins.front().residues.substr(0, 6);
  using Decoder = std::function<void(const std::vector<char>&)>;
  const Decoder as_list = [](const std::vector<char>& bytes) {
    (void)unpack_database(bytes);
  };
  const Decoder as_shard = [](const std::vector<char>& bytes) {
    (void)unpack_shard(bytes);
  };
  const Decoder as_hits = [](const std::vector<char>& bytes) {
    (void)unpack_hits(bytes);
  };
  const std::vector<std::pair<std::vector<char>, Decoder>> images = {
      {pack_database(db), as_list},
      {pack_shard(db, index), as_shard},
      {pack_shard(db, index, config.bin_width).bytes, as_shard},
      {pack_hits({{hit, hit}, {}, {hit}}), as_hits}};
  Xoshiro256 rng(104);
  for (const auto& [bytes, decode] : images) {
    for (int trial = 0; trial < 400; ++trial) {
      std::vector<char> corrupted = bytes;
      const std::size_t position = rng.bounded(corrupted.size());
      corrupted[position] ^= static_cast<char>(1u << rng.bounded(8));
      try {
        decode(corrupted);
      } catch (const Error&) {
        // IoError from a decoder check, or InvalidArgument from a record's
        // own invariant check
      }
    }
  }
}

// ---------- chunk loading over random line widths ----------

class WrapSweep : public ::testing::TestWithParam<int> {};

TEST_P(WrapSweep, ChunkPartitionIsExactForAnyLineWidth) {
  const std::size_t width = static_cast<std::size_t>(GetParam());
  ProteinGenOptions options;
  options.sequence_count = 30;
  options.mean_length = 90;
  options.seed = 42 + width;
  const ProteinDatabase db = generate_proteins(options);
  const std::string image = to_fasta_string(db, width);
  for (int p : {2, 5, 9}) {
    std::size_t total = 0;
    for (int r = 0; r < p; ++r)
      total += load_database_shard(image, r, p).sequence_count();
    EXPECT_EQ(total, db.sequence_count()) << "width " << width << " p " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, WrapSweep,
                         ::testing::Values(1, 3, 17, 60, 200, 10000));

}  // namespace
}  // namespace msp
