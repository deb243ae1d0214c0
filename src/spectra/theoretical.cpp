#include "spectra/theoretical.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "mass/amino_acid.hpp"
#include "util/error.hpp"

namespace msp {

namespace {

/// The ladder grid: truncation of a positive mz / width is floor — the exact
/// arithmetic BinnedSpectrum and FragmentIndex use — with bins beyond int32
/// range clamped to INT32_MAX.
std::int32_t ladder_bin(double mz, double bin_width) {
  const double q = mz / bin_width;
  return q >= static_cast<double>(std::numeric_limits<std::int32_t>::max())
             ? std::numeric_limits<std::int32_t>::max()
             : static_cast<std::int32_t>(q);
}

std::size_t padded_to_block(std::size_t n) {
  return (n + kLadderBlock - 1) & ~(kLadderBlock - 1);
}

}  // namespace

void build_ion_ladder(const std::vector<FragmentIon>& ions, double bin_width,
                      IonLadder& out) {
  MSP_CHECK_MSG(bin_width > 0.0, "ladder bin width must be positive");
  out.clear();
  out.total_ions = ions.size();
  out.bins.reserve(padded_to_block(ions.size()));
  std::int32_t last_bin = kLadderPadBin;
  for (const FragmentIon& ion : ions) {
    const std::int32_t bin = ladder_bin(ion.mz, bin_width);
    // Ions are m/z-ascending, so same-bin duplicates are adjacent: the first
    // ion claims the bin (first-hit wins), later ones are the duplicate-bin
    // double count the kernel must not re-add.
    if (bin == last_bin) continue;
    last_bin = bin;
    if (ion.type == FragmentIon::Type::kY) {
      const std::size_t entry = out.bins.size();
      while (out.y_mask.size() <= entry / kLadderBlock) out.y_mask.push_back(0);
      out.y_mask[entry / kLadderBlock] |=
          static_cast<std::uint8_t>(1u << (entry % kLadderBlock));
    }
    out.bins.push_back(bin);
  }
  out.size = out.bins.size();
  while (out.bins.size() % kLadderBlock != 0) out.bins.push_back(kLadderPadBin);
  while (out.y_mask.size() < out.bins.size() / kLadderBlock)
    out.y_mask.push_back(0);
}

const IonLadder& build_peptide_ladder(std::string_view peptide,
                                      double bin_width,
                                      FragmentIonWorkspace& workspace) {
  MSP_CHECK_MSG(peptide.size() >= 2,
                "cannot fragment a peptide shorter than 2");
  MSP_CHECK_MSG(bin_width > 0.0, "ladder bin width must be positive");
  residue_prefix_sums(peptide, workspace.prefix);
  const double* prefix = workspace.prefix.data();
  const std::size_t n = peptide.size();
  const double total = prefix[n];

  // Size both buffers for every ion up front (2(n − 1), padded), then write
  // through raw pointers and trim to the deduplicated, padded size.
  IonLadder& out = workspace.ladder;
  const std::size_t ions = 2 * (n - 1);
  out.bins.resize(padded_to_block(ions));
  out.y_mask.assign(out.bins.size() / kLadderBlock, 0);
  std::int32_t* bins = out.bins.data();
  std::uint8_t* y_mask = out.y_mask.data();
  std::size_t size = 0;
  std::int32_t last_bin = kLadderPadBin;
  // build_ion_ladder's loop body over the merged stream: first hit wins.
  const auto emit = [&](double mz, bool is_y) {
    const std::int32_t bin = ladder_bin(mz, bin_width);
    if (bin == last_bin) return;
    last_bin = bin;
    if (is_y)
      y_mask[size / kLadderBlock] |=
          static_cast<std::uint8_t>(1u << (size % kLadderBlock));
    bins[size++] = bin;
  };
  // fragment_ions_into's default-path merge on the same doubles:
  // mz_from_mass(m, 1) is (m + 1 · kProtonMass) / 1, bit-equal to
  // m + kProtonMass, and the y mass keeps its (total − prefix) + water
  // order. Ties take the b ion first.
  const auto b_mz = [prefix](std::size_t cut) {
    return prefix[cut] + kProtonMass;
  };
  const auto y_mz = [prefix, total](std::size_t cut) {
    return total - prefix[cut] + kWaterMass + kProtonMass;
  };
  std::size_t bcut = 1;
  std::size_t ycut = n - 1;
  double b = b_mz(bcut);
  double y = y_mz(ycut);
  while (bcut < n && ycut >= 1) {
    if (b <= y) {
      emit(b, false);
      if (++bcut < n) b = b_mz(bcut);
    } else {
      emit(y, true);
      if (--ycut >= 1) y = y_mz(ycut);
    }
  }
  for (; bcut < n; ++bcut) emit(b_mz(bcut), false);
  for (; ycut >= 1; --ycut) emit(y_mz(ycut), true);

  const std::size_t padded = padded_to_block(size);
  std::fill(bins + size, bins + padded, kLadderPadBin);
  out.bins.resize(padded);
  out.y_mask.resize(padded / kLadderBlock);
  out.size = size;
  out.total_ions = ions;
  return out;
}

const std::vector<FragmentIon>& fragment_ions_into(
    std::string_view peptide, const TheoreticalOptions& options,
    FragmentIonWorkspace& workspace) {
  MSP_CHECK_MSG(peptide.size() >= 2,
                "cannot fragment a peptide shorter than 2");
  MSP_CHECK_MSG(options.site_deltas.empty() ||
                    options.site_deltas.size() == peptide.size(),
                "site_deltas must be empty or match peptide length");
  MSP_CHECK_MSG(options.max_fragment_charge >= 1,
                "fragment charge must be >= 1");

  // Running residue-mass prefix (with per-site deltas applied).
  std::vector<double>& prefix = workspace.prefix;
  prefix.assign(peptide.size() + 1, 0.0);
  for (std::size_t i = 0; i < peptide.size(); ++i) {
    double residue = residue_mass(peptide[i]);
    if (!options.site_deltas.empty()) residue += options.site_deltas[i];
    prefix[i + 1] = prefix[i] + residue;
  }
  const double total = prefix.back();

  std::vector<FragmentIon>& ions = workspace.ions;
  ions.clear();
  ions.reserve(2 * (peptide.size() - 1) *
               static_cast<std::size_t>(options.max_fragment_charge));
  // b-ion: residues [0, cut); neutral mass = prefix — water is *not*
  // subtracted: a b-ion is the acylium fragment, sum(residues).
  // y-ion: residues [cut, n) plus water.
  //
  // In the default configuration (singly-charged b and y) the b series
  // ascends with cut and the y series descends, so walking the y series
  // from the last cut backward gives two ascending streams and a two-pointer
  // merge produces the sorted output in O(n) — this replaces a per-candidate
  // std::sort that dominated the scoring hot loop. Ties order b before y
  // (deterministic, where the sort's tie order was unspecified).
  const auto n = static_cast<unsigned>(peptide.size());
  // site_deltas could in principle be negative enough to break the series'
  // monotonicity, so modified candidates take the sort path below.
  if (options.max_fragment_charge == 1 && options.include_b &&
      options.include_y && options.site_deltas.empty()) {
    unsigned bcut = 1;
    unsigned ycut = n - 1;
    double b_mz = mz_from_mass(prefix[bcut], 1);
    double y_mz = mz_from_mass(total - prefix[ycut] + kWaterMass, 1);
    while (bcut < n && ycut >= 1) {
      if (b_mz <= y_mz) {
        ions.push_back(FragmentIon{b_mz, FragmentIon::Type::kB, bcut});
        if (++bcut < n) b_mz = mz_from_mass(prefix[bcut], 1);
      } else {
        ions.push_back(FragmentIon{y_mz, FragmentIon::Type::kY, n - ycut});
        if (--ycut >= 1)
          y_mz = mz_from_mass(total - prefix[ycut] + kWaterMass, 1);
      }
    }
    for (; bcut < n; ++bcut)
      ions.push_back(
          FragmentIon{mz_from_mass(prefix[bcut], 1), FragmentIon::Type::kB,
                      bcut});
    for (; ycut >= 1; --ycut)
      ions.push_back(
          FragmentIon{mz_from_mass(total - prefix[ycut] + kWaterMass, 1),
                      FragmentIon::Type::kY, n - ycut});
    return ions;
  }
  for (unsigned cut = 1; cut < n; ++cut) {
    const double b_neutral = prefix[cut];
    const double y_neutral = total - prefix[cut] + kWaterMass;
    for (int z = 1; z <= options.max_fragment_charge; ++z) {
      if (options.include_b)
        ions.push_back(FragmentIon{mz_from_mass(b_neutral, z),
                                   FragmentIon::Type::kB, cut});
      if (options.include_y)
        ions.push_back(FragmentIon{mz_from_mass(y_neutral, z),
                                   FragmentIon::Type::kY, n - cut});
    }
  }
  std::sort(ions.begin(), ions.end(), [](const FragmentIon& a,
                                         const FragmentIon& b) {
    return a.mz < b.mz;
  });
  return ions;
}

std::vector<FragmentIon> fragment_ions(std::string_view peptide,
                                       const TheoreticalOptions& options) {
  FragmentIonWorkspace workspace;
  fragment_ions_into(peptide, options, workspace);
  return std::move(workspace.ions);
}

Spectrum model_spectrum(std::string_view peptide,
                        const TheoreticalOptions& options) {
  const auto ions = fragment_ions(peptide, options);
  std::vector<Peak> peaks;
  peaks.reserve(ions.size());
  for (const FragmentIon& ion : ions) {
    // Tryptic CID spectra are y-ion dominated; 1.0 vs 0.6 is the usual
    // first-order weighting (the likelihood model renormalizes anyway).
    const double intensity = ion.type == FragmentIon::Type::kY ? 1.0 : 0.6;
    peaks.push_back(Peak{ion.mz, intensity});
  }
  double delta_total = 0.0;
  for (double d : options.site_deltas) delta_total += d;
  const double parent = peptide_mass(peptide) + delta_total;
  return Spectrum(std::move(peaks), mz_from_mass(parent, 1), 1,
                  std::string(peptide));
}

}  // namespace msp
