// Tests for src/spectra: spectrum invariants, binning, theoretical ions,
// preprocessing and the synthetic CID generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "mass/amino_acid.hpp"
#include "spectra/generator.hpp"
#include "spectra/library.hpp"
#include "spectra/preprocess.hpp"
#include "spectra/spectrum.hpp"
#include "spectra/theoretical.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace msp {
namespace {

TEST(Spectrum, SortsPeaksAndDropsNonPositive) {
  Spectrum spectrum({{300.0, 1.0}, {100.0, 2.0}, {200.0, 0.0}, {-5.0, 3.0}},
                    500.0, 2, "t");
  ASSERT_EQ(spectrum.size(), 2u);
  EXPECT_DOUBLE_EQ(spectrum.peaks()[0].mz, 100.0);
  EXPECT_DOUBLE_EQ(spectrum.peaks()[1].mz, 300.0);
  EXPECT_DOUBLE_EQ(spectrum.min_mz(), 100.0);
  EXPECT_DOUBLE_EQ(spectrum.max_mz(), 300.0);
  EXPECT_DOUBLE_EQ(spectrum.total_intensity(), 3.0);
  EXPECT_DOUBLE_EQ(spectrum.max_intensity(), 2.0);
}

TEST(Spectrum, ParentMassFromPrecursor) {
  const double mass = 1500.75;
  Spectrum spectrum({{100.0, 1.0}}, mz_from_mass(mass, 2), 2);
  EXPECT_NEAR(spectrum.parent_mass(), mass, 1e-9);
}

TEST(Spectrum, RejectsBadConstruction) {
  EXPECT_THROW(Spectrum({}, 500.0, 0), InvalidArgument);
  EXPECT_THROW(Spectrum({}, -1.0, 2), InvalidArgument);
}

TEST(BinnedSpectrum, LookupMatchesPeaks) {
  Spectrum spectrum({{100.2, 1.0}, {250.7, 3.0}}, 500.0, 1);
  const BinnedSpectrum binned(spectrum, 1.0);
  EXPECT_TRUE(binned.has_peak_at(100.2));
  EXPECT_TRUE(binned.has_peak_at(100.9));   // same 1 Da bin
  EXPECT_FALSE(binned.has_peak_at(101.5));
  EXPECT_DOUBLE_EQ(binned.intensity_at(250.3), 3.0);
  EXPECT_DOUBLE_EQ(binned.intensity_at(9999.0), 0.0);  // out of range
  EXPECT_EQ(binned.peak_bin_count(), 2u);
}

TEST(BinnedSpectrum, SameBinKeepsMaxIntensity) {
  Spectrum spectrum({{100.1, 1.0}, {100.4, 5.0}}, 500.0, 1);
  const BinnedSpectrum binned(spectrum, 1.0);
  EXPECT_DOUBLE_EQ(binned.intensity_at(100.0), 5.0);
  EXPECT_EQ(binned.peak_bin_count(), 1u);
}

// ---------- theoretical ions ----------

TEST(Theoretical, CountsAndOrdering) {
  const auto ions = fragment_ions("PEPTIDE");
  // 6 cuts × (b + y) = 12 singly-charged ions.
  ASSERT_EQ(ions.size(), 12u);
  EXPECT_TRUE(std::is_sorted(ions.begin(), ions.end(),
                             [](const FragmentIon& a, const FragmentIon& b) {
                               return a.mz < b.mz;
                             }));
}

TEST(Theoretical, KnownIonMasses) {
  // b2 of "PE...": P + E residues + proton.
  const auto ions = fragment_ions("PEPTIDE");
  const double b2_expected =
      residue_mass('P') + residue_mass('E') + kProtonMass;
  const double y1_expected = residue_mass('E') + kWaterMass + kProtonMass;
  bool saw_b2 = false, saw_y1 = false;
  for (const FragmentIon& ion : ions) {
    if (ion.type == FragmentIon::Type::kB && ion.index == 2) {
      EXPECT_NEAR(ion.mz, b2_expected, 1e-6);
      saw_b2 = true;
    }
    if (ion.type == FragmentIon::Type::kY && ion.index == 1) {
      EXPECT_NEAR(ion.mz, y1_expected, 1e-6);
      saw_y1 = true;
    }
  }
  EXPECT_TRUE(saw_b2);
  EXPECT_TRUE(saw_y1);
}

// Property: complementary b/y pairs sum to parent + 2 protons.
TEST(Theoretical, ComplementaryPairsSumToParent) {
  const std::string peptide = "ACDEFGHIK";
  const double parent = peptide_mass(peptide);
  const auto ions = fragment_ions(peptide);
  for (const FragmentIon& b : ions) {
    if (b.type != FragmentIon::Type::kB) continue;
    for (const FragmentIon& y : ions) {
      if (y.type != FragmentIon::Type::kY) continue;
      if (b.index + y.index != peptide.size()) continue;
      {
        EXPECT_NEAR(b.mz + y.mz, parent + 2 * kProtonMass, 1e-6);
      }
    }
  }
}

TEST(Theoretical, SiteDeltasShiftDownstreamIons) {
  TheoreticalOptions plain;
  TheoreticalOptions modified;
  modified.site_deltas = {0.0, 80.0, 0.0, 0.0};  // +80 on residue 1
  const auto base = fragment_ions("ACDE", plain);
  const auto shifted = fragment_ions("ACDE", modified);
  // b1 unchanged; b2, b3 shifted by +80; y3 shifted; y1, y2 unchanged.
  auto find_ion = [](const std::vector<FragmentIon>& ions,
                     FragmentIon::Type type, unsigned index) {
    for (const FragmentIon& ion : ions)
      if (ion.type == type && ion.index == index) return ion.mz;
    return -1.0;
  };
  EXPECT_NEAR(find_ion(shifted, FragmentIon::Type::kB, 1),
              find_ion(base, FragmentIon::Type::kB, 1), 1e-9);
  EXPECT_NEAR(find_ion(shifted, FragmentIon::Type::kB, 2),
              find_ion(base, FragmentIon::Type::kB, 2) + 80.0, 1e-9);
  EXPECT_NEAR(find_ion(shifted, FragmentIon::Type::kY, 1),
              find_ion(base, FragmentIon::Type::kY, 1), 1e-9);
  EXPECT_NEAR(find_ion(shifted, FragmentIon::Type::kY, 3),
              find_ion(base, FragmentIon::Type::kY, 3) + 80.0, 1e-9);
}

TEST(Theoretical, DoublyChargedIonsIncluded) {
  TheoreticalOptions options;
  options.max_fragment_charge = 2;
  EXPECT_EQ(fragment_ions("PEPTIDE", options).size(), 24u);
}

TEST(Theoretical, RejectsBadInput) {
  EXPECT_THROW(fragment_ions("A"), InvalidArgument);
  TheoreticalOptions options;
  options.site_deltas = {1.0};
  EXPECT_THROW(fragment_ions("ACD", options), InvalidArgument);
}

// The fused builder every kernel uses must produce the two-step path's
// ladder field for field: random peptides over all 20 residues (I and L
// are isobaric, so b/y ties and same-bin duplicates occur), on the default
// grid, a fine grid, a 50 Da grid where most ions share a bin, and a grid
// fine enough that heavy ions hit the INT32_MAX clamp.
TEST(Ladder, FusedBuilderMatchesTwoStep) {
  Xoshiro256 rng(2020);
  std::vector<std::string> peptides = {"GA", "IL", "LI", "WW",
                                       std::string(kResidueAlphabet)};
  for (int i = 0; i < 400; ++i) {
    std::string peptide(2 + rng.bounded(62), 'A');
    for (char& c : peptide)
      c = kResidueAlphabet[rng.bounded(kResidueAlphabet.size())];
    peptides.push_back(std::move(peptide));
  }
  std::size_t clamped = 0;
  std::size_t deduplicated = 0;
  FragmentIonWorkspace two_step;
  FragmentIonWorkspace fused;
  for (const double width : {kDefaultBinWidth, 0.01, 50.0, 1e-6}) {
    for (const std::string& peptide : peptides) {
      build_ion_ladder(fragment_ions_into(peptide, {}, two_step), width,
                       two_step.ladder);
      const IonLadder& got = build_peptide_ladder(peptide, width, fused);
      const IonLadder& want = two_step.ladder;
      ASSERT_EQ(got.bins, want.bins) << peptide << " @ " << width;
      ASSERT_EQ(got.b_size, want.b_size) << peptide << " @ " << width;
      ASSERT_EQ(got.size, want.size) << peptide << " @ " << width;
      ASSERT_EQ(got.total_ions, want.total_ions) << peptide << " @ " << width;
      clamped += std::count(got.bins.begin(), got.bins.end(),
                            std::numeric_limits<std::int32_t>::max());
      deduplicated += got.total_ions - got.size;
    }
  }
  EXPECT_GT(clamped, 0u) << "no ladder reached the INT32_MAX clamp";
  EXPECT_GT(deduplicated, 0u) << "no ladder deduplicated a bin";

  // The builder rejects what fragment_ions_into rejects.
  const std::string bad[] = {"AX", std::string("A\0C", 3), "A\xFF", "xA"};
  for (const std::string& peptide : bad)
    EXPECT_THROW(build_peptide_ladder(peptide, kDefaultBinWidth, fused),
                 InvalidArgument);
  EXPECT_THROW(build_peptide_ladder("A", kDefaultBinWidth, fused),
               InvalidArgument);
  EXPECT_THROW(build_peptide_ladder("AC", 0.0, fused), InvalidArgument);
}

// A bin both series reach belongs to the first ion in m/z order — the b ion
// on equal m/z — and to that ion's stream only. Random peptides give shared
// bins with the b ion lighter and with the y ion lighter; an exact m/z tie
// needs hand-built ions.
TEST(Ladder, SharedBinGoesToTheFirstIon) {
  Xoshiro256 rng(77);
  std::size_t b_first = 0;
  std::size_t y_first = 0;
  FragmentIonWorkspace two_step;
  FragmentIonWorkspace fused;
  for (const double width : {kDefaultBinWidth, 4.0}) {
    for (int trial = 0; trial < 600; ++trial) {
      std::string peptide(6 + rng.bounded(30), 'A');
      for (char& c : peptide)
        c = kResidueAlphabet[rng.bounded(kResidueAlphabet.size())];
      const std::vector<FragmentIon>& ions =
          fragment_ions_into(peptide, {}, two_step);
      const IonLadder& ladder = build_peptide_ladder(peptide, width, fused);
      const std::span<const std::int32_t> b = ladder.b_stream();
      const std::span<const std::int32_t> y = ladder.y_stream();
      for (std::size_t k = 0; k < ions.size(); ++k) {
        const auto bin = static_cast<std::int32_t>(ions[k].mz / width);
        // The first ion of its bin on the m/z-sorted list claims it.
        if (k > 0 && static_cast<std::int32_t>(ions[k - 1].mz / width) == bin)
          continue;
        bool other_type = false;
        for (std::size_t l = k + 1; l < ions.size() &&
                                    static_cast<std::int32_t>(ions[l].mz /
                                                              width) == bin;
             ++l)
          other_type |= ions[l].type != ions[k].type;
        const bool in_b = std::binary_search(b.begin(), b.end(), bin);
        const bool in_y = std::binary_search(y.begin(), y.end(), bin);
        ASSERT_NE(in_b, in_y) << peptide << " bin " << bin;
        ASSERT_EQ(in_y, ions[k].type == FragmentIon::Type::kY)
            << peptide << " bin " << bin;
        if (other_type) ++(in_b ? b_first : y_first);
      }
    }
  }
  EXPECT_GT(b_first, 0u) << "no shared bin with the b ion first";
  EXPECT_GT(y_first, 0u) << "no shared bin with the y ion first";

  // Equal m/z: the b ion comes first on the sorted list and claims the bin.
  IonLadder tie;
  build_ion_ladder({{500.25, FragmentIon::Type::kB, 4},
                    {500.25, FragmentIon::Type::kY, 3}},
                   kDefaultBinWidth, tie);
  EXPECT_EQ(tie.size, 1u);
  EXPECT_EQ(tie.b_size, 1u);
  EXPECT_EQ(tie.total_ions, 2u);
}

// The shortest peptide (one cut) and a 63-residue one, on the default grid
// and on one so fine that the heavy ions clamp to INT32_MAX (where every
// clamped ion of a series shares one bin): fused equals two-step, and the
// streams stay ascending and disjoint.
TEST(Ladder, ExtremeLengthsAndClampedBins) {
  Xoshiro256 rng(63);
  std::string long_peptide(63, 'A');
  for (char& c : long_peptide)
    c = kResidueAlphabet[rng.bounded(kResidueAlphabet.size())];
  FragmentIonWorkspace two_step;
  FragmentIonWorkspace fused;
  std::size_t clamped = 0;
  for (const std::string& peptide :
       {std::string("GA"), std::string("WW"), long_peptide}) {
    for (const double width : {kDefaultBinWidth, 1e-6}) {
      build_ion_ladder(fragment_ions_into(peptide, {}, two_step), width,
                       two_step.ladder);
      const IonLadder& got = build_peptide_ladder(peptide, width, fused);
      const IonLadder& want = two_step.ladder;
      ASSERT_EQ(got.bins, want.bins) << peptide << " @ " << width;
      ASSERT_EQ(got.b_size, want.b_size) << peptide << " @ " << width;
      ASSERT_EQ(got.size, want.size) << peptide << " @ " << width;
      ASSERT_EQ(got.total_ions, 2 * (peptide.size() - 1));
      for (const std::span<const std::int32_t> stream :
           {got.b_stream(), got.y_stream()})
        ASSERT_TRUE(std::adjacent_find(stream.begin(), stream.end(),
                                       std::greater_equal<>()) ==
                    stream.end())
            << peptide << " @ " << width << ": a stream does not ascend";
      for (const std::int32_t bin : got.b_stream())
        ASSERT_FALSE(std::binary_search(got.y_stream().begin(),
                                        got.y_stream().end(), bin))
            << peptide << " @ " << width << ": bin " << bin << " in both";
      clamped += static_cast<std::size_t>(std::count(
          got.bins.begin(), got.bins.end(),
          std::numeric_limits<std::int32_t>::max()));
    }
  }
  EXPECT_GT(clamped, 0u) << "no ladder reached the INT32_MAX clamp";
}

TEST(Theoretical, ModelSpectrumWeightsYOverB) {
  const Spectrum model = model_spectrum("PEPTIDEK");
  const auto ions = fragment_ions("PEPTIDEK");
  const BinnedSpectrum binned(model, 0.01);
  for (const FragmentIon& ion : ions) {
    const double intensity = binned.intensity_at(ion.mz);
    if (ion.type == FragmentIon::Type::kY) {
      EXPECT_DOUBLE_EQ(intensity, 1.0);
    }
  }
  EXPECT_NEAR(model.parent_mass(), peptide_mass("PEPTIDEK"), 1e-6);
}

// ---------- preprocessing ----------

TEST(Preprocess, RemovesPrecursorNeighborhood) {
  Spectrum spectrum({{499.5, 10.0}, {300.0, 1.0}}, 500.0, 1);
  PreprocessOptions options;
  options.precursor_exclusion_da = 2.0;
  options.sqrt_transform = false;
  const Spectrum cleaned = preprocess(spectrum, options);
  ASSERT_EQ(cleaned.size(), 1u);
  EXPECT_DOUBLE_EQ(cleaned.peaks()[0].mz, 300.0);
}

TEST(Preprocess, KeepsTopPeaksPerWindow) {
  std::vector<Peak> peaks;
  for (int i = 0; i < 20; ++i)
    peaks.push_back({100.0 + i, 1.0 + i});  // all in window [100, 200)
  Spectrum spectrum(std::move(peaks), 5000.0, 1);
  PreprocessOptions options;
  options.peaks_per_window = 6;
  options.window_da = 100.0;
  options.precursor_exclusion_da = 0.0;
  const Spectrum cleaned = preprocess(spectrum, options);
  EXPECT_EQ(cleaned.size(), 6u);
  // The six most intense survive: intensities 15..20 → mz 114..119.
  EXPECT_GE(cleaned.min_mz(), 114.0);
}

TEST(Preprocess, NormalizesMaxToOne) {
  Spectrum spectrum({{100.0, 4.0}, {200.0, 16.0}}, 5000.0, 1);
  PreprocessOptions options;
  options.sqrt_transform = true;
  options.normalize_max = true;
  options.precursor_exclusion_da = 0.0;
  const Spectrum cleaned = preprocess(spectrum, options);
  EXPECT_DOUBLE_EQ(cleaned.max_intensity(), 1.0);
  // sqrt preserved ratio: sqrt(4)/sqrt(16) = 0.5.
  EXPECT_DOUBLE_EQ(cleaned.peaks()[0].intensity, 0.5);
}

TEST(Preprocess, EmptySpectrumSurvives) {
  Spectrum spectrum({}, 500.0, 1);
  const Spectrum cleaned = preprocess(spectrum);
  EXPECT_TRUE(cleaned.empty());
  EXPECT_DOUBLE_EQ(cleaned.precursor_mz(), 500.0);
}

// ---------- generator ----------

TEST(Generator, DeterministicGivenSeed) {
  SpectrumNoiseModel model;
  Xoshiro256 rng_a(99), rng_b(99);
  const Spectrum a = simulate_spectrum("ACDEFGHIK", model, rng_a);
  const Spectrum b = simulate_spectrum("ACDEFGHIK", model, rng_b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.peaks()[i].mz, b.peaks()[i].mz);
    EXPECT_DOUBLE_EQ(a.peaks()[i].intensity, b.peaks()[i].intensity);
  }
}

TEST(Generator, PrecursorNearTruePeptideMass) {
  SpectrumNoiseModel model;
  model.precursor_sigma_da = 0.0;
  Xoshiro256 rng(1);
  const Spectrum spectrum = simulate_spectrum("ACDEFGHIK", model, rng);
  EXPECT_NEAR(spectrum.parent_mass(), peptide_mass("ACDEFGHIK"), 1e-9);
  EXPECT_EQ(spectrum.charge(), model.charge);
}

TEST(Generator, NoNoiseNoDropoutReproducesAllIons) {
  SpectrumNoiseModel model;
  model.peak_dropout = 0.0;
  model.mz_sigma_da = 0.0;
  model.noise_peaks_per_100da = 0.0;
  model.intensity_sigma = 0.0;
  Xoshiro256 rng(5);
  const Spectrum spectrum = simulate_spectrum("ACDEFGHIK", model, rng);
  const auto ions = fragment_ions("ACDEFGHIK");
  const BinnedSpectrum binned(spectrum, 0.01);
  for (const FragmentIon& ion : ions)
    EXPECT_TRUE(binned.has_peak_at(ion.mz)) << ion.mz;
}

TEST(Generator, DropoutReducesPeakCount) {
  SpectrumNoiseModel keep, drop;
  keep.peak_dropout = 0.0;
  keep.noise_peaks_per_100da = 0.0;
  drop.peak_dropout = 0.7;
  drop.noise_peaks_per_100da = 0.0;
  std::size_t kept_total = 0, dropped_total = 0;
  for (int i = 0; i < 50; ++i) {
    Xoshiro256 rng_keep(1000 + i), rng_drop(1000 + i);
    kept_total += simulate_spectrum("ACDEFGHIKLMNPQR", keep, rng_keep).size();
    dropped_total += simulate_spectrum("ACDEFGHIKLMNPQR", drop, rng_drop).size();
  }
  EXPECT_LT(dropped_total, kept_total / 2);
}

// ---------- spectral library ----------

std::vector<Spectrum> make_replicates(std::string_view peptide, int count,
                                      std::uint64_t seed) {
  SpectrumNoiseModel model;
  model.peak_dropout = 0.2;
  model.noise_peaks_per_100da = 2.0;
  std::vector<Spectrum> replicates;
  for (int i = 0; i < count; ++i) {
    Xoshiro256 rng(seed + static_cast<std::uint64_t>(i));
    replicates.push_back(simulate_spectrum(peptide, model, rng));
  }
  return replicates;
}

TEST(Library, ConsensusSuppressesNoiseKeepsFragments) {
  const std::string peptide = "ACDEFGHIKLMNK";
  const auto replicates = make_replicates(peptide, 9, 500);
  const Spectrum consensus = build_consensus(peptide, replicates);
  ASSERT_FALSE(consensus.empty());
  // Most true fragment ions (dropout 0.2 → present in ~80% of replicates)
  // survive the 50% presence threshold...
  const auto ions = fragment_ions(peptide);
  const BinnedSpectrum binned(consensus);
  std::size_t present = 0;
  for (const FragmentIon& ion : ions) {
    // ±1 bin: replicate jitter can center the consensus on either side of
    // a bin boundary relative to the exact theoretical m/z.
    if (binned.has_peak_at(ion.mz) ||
        binned.has_peak_at(ion.mz - kDefaultBinWidth) ||
        binned.has_peak_at(ion.mz + kDefaultBinWidth))
      ++present;
  }
  EXPECT_GE(present, ions.size() * 2 / 3);
  // ...while uniform random noise (each peak in ~1 replicate) is mostly
  // gone: the consensus has few peaks beyond the fragment set.
  EXPECT_LE(consensus.size(), ions.size() + 8);
}

TEST(Library, ConsensusParentMassFromPeptide) {
  const std::string peptide = "PEPTIDEK";
  const auto replicates = make_replicates(peptide, 3, 41);
  const Spectrum consensus = build_consensus(peptide, replicates);
  EXPECT_NEAR(consensus.parent_mass(), peptide_mass(peptide), 1e-6);
  EXPECT_EQ(consensus.title(), peptide);
}

TEST(Library, RejectsBadInput) {
  EXPECT_THROW(build_consensus("PEPTIDEK", {}), InvalidArgument);
  ConsensusOptions options;
  options.min_replicate_fraction = 0.0;
  EXPECT_THROW(build_consensus("PEPTIDEK", make_replicates("PEPTIDEK", 2, 1),
                               options),
               InvalidArgument);
}

TEST(Library, FindAndReplace) {
  SpectralLibrary library;
  EXPECT_TRUE(library.empty());
  library.add_replicates("ACDEFGHIK", make_replicates("ACDEFGHIK", 4, 7));
  EXPECT_EQ(library.size(), 1u);
  ASSERT_NE(library.find("ACDEFGHIK"), nullptr);
  EXPECT_EQ(library.find("OTHERPEP"), nullptr);
  const std::size_t before = library.find("ACDEFGHIK")->size();
  library.add("ACDEFGHIK", Spectrum({{100.0, 1.0}},
                                    mz_from_mass(peptide_mass("ACDEFGHIK"), 1),
                                    1, "ACDEFGHIK"));
  EXPECT_EQ(library.find("ACDEFGHIK")->size(), 1u);
  EXPECT_NE(before, 1u);
}

TEST(Library, SaveLoadRoundTrip) {
  SpectralLibrary library;
  library.add_replicates("ACDEFGHIK", make_replicates("ACDEFGHIK", 4, 11));
  library.add_replicates("LMNPQRSTK", make_replicates("LMNPQRSTK", 4, 12));
  std::ostringstream out;
  library.save(out);
  std::istringstream in(out.str());
  const SpectralLibrary loaded = SpectralLibrary::load(in);
  EXPECT_EQ(loaded.size(), 2u);
  const Spectrum* original = library.find("ACDEFGHIK");
  const Spectrum* reloaded = loaded.find("ACDEFGHIK");
  ASSERT_NE(reloaded, nullptr);
  ASSERT_EQ(reloaded->size(), original->size());
  for (std::size_t i = 0; i < reloaded->size(); ++i)
    EXPECT_NEAR(reloaded->peaks()[i].mz, original->peaks()[i].mz, 1e-3);
}

TEST(Library, LoadRejectsTruncatedEntry) {
  std::istringstream in("PEPTIDEK 3\n100.0 1.0\n");
  EXPECT_THROW(SpectralLibrary::load(in), IoError);
}

TEST(Generator, IsotopeEnvelopesAddSatellitePeaks) {
  SpectrumNoiseModel plain;
  plain.peak_dropout = 0.0;
  plain.noise_peaks_per_100da = 0.0;
  plain.mz_sigma_da = 0.0;
  SpectrumNoiseModel enveloped = plain;
  enveloped.isotope_envelopes = true;

  Xoshiro256 rng_a(10), rng_b(10);
  const Spectrum mono = simulate_spectrum("ACDEFGHIK", plain, rng_a);
  const Spectrum iso = simulate_spectrum("ACDEFGHIK", enveloped, rng_b);
  EXPECT_GT(iso.size(), mono.size());
  // Each fragment line gains an M+1 satellite ~1.0034 Da above it.
  const BinnedSpectrum binned(iso, 0.01);
  std::size_t satellites = 0;
  for (const Peak& peak : mono.peaks())
    if (binned.has_peak_at(peak.mz + 1.0033548)) ++satellites;
  EXPECT_GE(satellites, mono.size() * 9 / 10);
}

TEST(Generator, TitleDefaultsToPeptide) {
  SpectrumNoiseModel model;
  Xoshiro256 rng(3);
  EXPECT_EQ(simulate_spectrum("ACDEFG", model, rng).title(), "ACDEFG");
  Xoshiro256 rng2(3);
  EXPECT_EQ(simulate_spectrum("ACDEFG", model, rng2, "custom").title(),
            "custom");
}

}  // namespace
}  // namespace msp
