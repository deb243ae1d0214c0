// Theoretical (model) fragment spectra.
//
// MSPolygraph compares the experimental spectrum against an on-the-fly model
// spectrum of each candidate (Section I-A, "on-the-fly generation of sequence
// averaged model spectra"). The standard CID fragmentation model: cleaving
// the peptide bond between residues i and i+1 yields an N-terminal b-ion
// (first i residues) and a C-terminal y-ion (remaining residues + water).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "spectra/spectrum.hpp"

namespace msp {

struct FragmentIon {
  double mz = 0.0;
  enum class Type : unsigned char { kB, kY } type = Type::kB;
  unsigned index = 0;  ///< ion ordinal: b_i has index i, y_j has index j
};

struct TheoreticalOptions {
  int max_fragment_charge = 1;  ///< also emit 2+ fragment ions when 2
  bool include_b = true;
  bool include_y = true;
  /// Per-site mass deltas (PTMs) indexed by residue position; empty = none.
  std::vector<double> site_deltas;
};

/// Lane width of the blocked scoring kernel (scoring/kernel.hpp): IonLadder
/// bin arrays are padded to a multiple of this so the kernel can process
/// whole blocks without a tail loop.
inline constexpr std::size_t kLadderBlock = 8;

/// Sentinel bin padding entries carry: negative, so the kernel's in-range
/// test rejects padding lanes along with below-grid bins in one compare.
inline constexpr std::int32_t kLadderPadBin = -1;

/// `n` rounded up to a whole number of kLadderBlock lanes.
inline constexpr std::size_t ladder_padded(std::size_t n) {
  return (n + kLadderBlock - 1) & ~(kLadderBlock - 1);
}

/// The SoA form of a candidate's fragment-ion ladder the scoring kernel
/// consumes: the ions' spectrum-bin indices (the same floor(mz / bin_width)
/// grid BinnedSpectrum and FragmentIndex use), **deduplicated per bin**, as
/// two ascending, disjoint streams — the bins the b ions claim, then the
/// bins the y ions claim. Two ions landing in one spectrum bin are a single
/// piece of evidence — one query peak cannot be matched twice — so the
/// first ion on the m/z-sorted ladder claims the bin and later ions in the
/// same bin are dropped (first-hit wins; on equal m/z the b ion is first).
/// A bin therefore sits in exactly one stream, and that stream is the type
/// of the ion that claimed it. `total_ions` preserves the pre-dedup count
/// for PeakMatchStats::total_ions.
///
/// `bins` holds the b stream, the y stream right behind it, and padding
/// with kLadderPadBin to a kLadderBlock multiple: the streams share one
/// tail block, so a ladder costs the kernel no more blocks than the single
/// merged ladder did. Every sum over a ladder runs in ascending bin order
/// across both streams — the order of the merged ladder — so splitting the
/// streams changes no score bit.
struct IonLadder {
  std::vector<std::int32_t> bins;  ///< b stream, y stream, padding
  std::size_t b_size = 0;          ///< distinct bins the b ions claim
  std::size_t size = 0;            ///< distinct bins, both streams
  std::size_t total_ions = 0;      ///< ions before per-bin dedup

  std::size_t y_size() const { return size - b_size; }
  std::size_t block_count() const { return bins.size() / kLadderBlock; }
  std::span<const std::int32_t> b_stream() const {
    return {bins.data(), b_size};
  }
  std::span<const std::int32_t> y_stream() const {
    return {bins.data() + b_size, y_size()};
  }
  void clear() {
    bins.clear();
    b_size = 0;
    size = 0;
    total_ions = 0;
  }
};

/// Visit every bin of `ladder` in ascending order across both streams: a
/// two-pointer merge, for the consumers that sum per bin (Xcorr) and must
/// keep the merged ladder's order.
template <typename Visit>
void for_each_ladder_bin(const IonLadder& ladder, Visit&& visit) {
  const std::span<const std::int32_t> b = ladder.b_stream();
  const std::span<const std::int32_t> y = ladder.y_stream();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < b.size() && j < y.size()) visit(b[i] < y[j] ? b[i++] : y[j++]);
  for (; i < b.size(); ++i) visit(b[i]);
  for (; j < y.size(); ++j) visit(y[j]);
}

/// Build the SoA ladder of `ions` (which must be m/z-ascending, as
/// fragment_ions emits them) on the floor(mz / bin_width) grid, into `out`
/// (reusing its buffers): one walk in m/z order applies the first-hit dedup
/// and appends each surviving ion's bin to its type's stream. Bins beyond int32 range are clamped to INT32_MAX —
/// unmatchable in practice, since a binned spectrum that large cannot be
/// allocated.
void build_ion_ladder(const std::vector<FragmentIon>& ions, double bin_width,
                      IonLadder& out);

/// Reusable buffers for fragment-ion generation. The search kernel scores
/// millions of candidates; building each candidate's ions into a workspace
/// instead of a fresh vector removes two heap allocations per candidate and
/// lets one ion vector be shared across every query the candidate matches.
struct FragmentIonWorkspace {
  std::vector<double> prefix;    ///< running residue-mass prefix (scratch)
  std::vector<FragmentIon> ions; ///< output of the last fragment_ions_into
  IonLadder ladder;              ///< SoA bin form for the blocked kernel
};

/// Build the IonLadder of `peptide` under the default TheoreticalOptions
/// (singly-charged b and y ions, no site deltas) on the
/// floor(mz / bin_width) grid into `workspace.ladder`, and return it. The
/// result — bins, b_size, size and total_ions — equals
/// build_ion_ladder(fragment_ions_into(peptide, {}, workspace), bin_width,
/// ladder), but it never merges the b and y series. From the residue-table
/// prefix sums it bins each series on its own, four ions per vector step
/// (an AVX2 clone where the CPU has it; IEEE division gives the same bits
/// at every width), on the same m/z doubles fragment_ions_into computes.
/// Each series is ascending, so its same-bin duplicates are adjacent and
/// drop in one compaction pass (only grids coarser than a residue, or the
/// INT32_MAX clamp, produce any). A bin both series reach is found without
/// a merge — every y bin broadcast against the b bins in registers, 32 at
/// a time — and only then are the two first ions in that bin compared
/// (b wins ties) and the later one dropped. Every
/// kernel builds its ladders here; the two-step path stays behind the
/// reference kernel so the oracle is independent of this builder. Throws
/// InvalidArgument for a peptide shorter than 2, a non-residue byte or a
/// non-positive bin width.
const IonLadder& build_peptide_ladder(std::string_view peptide,
                                      double bin_width,
                                      FragmentIonWorkspace& workspace);

/// Enumerate the fragment ions of `peptide` into `workspace.ions` (sorted by
/// m/z, identical content and order to fragment_ions — scores computed from
/// either are bit-identical). Returns the filled ion vector.
const std::vector<FragmentIon>& fragment_ions_into(
    std::string_view peptide, const TheoreticalOptions& options,
    FragmentIonWorkspace& workspace);

/// Enumerate the fragment ions of `peptide`, sorted by m/z.
std::vector<FragmentIon> fragment_ions(std::string_view peptide,
                                       const TheoreticalOptions& options = {});

/// Model spectrum: fragment ions with unit intensity, plus the conventional
/// mild weighting of y-ions (they dominate tryptic CID spectra).
Spectrum model_spectrum(std::string_view peptide,
                        const TheoreticalOptions& options = {});

}  // namespace msp
