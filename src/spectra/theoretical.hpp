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

/// The SoA form of a candidate's fragment-ion ladder the scoring kernel
/// consumes: the ions' spectrum-bin indices (the same floor(mz / bin_width)
/// grid BinnedSpectrum and FragmentIndex use), **deduplicated per bin** and
/// ascending. Two ions landing in one spectrum bin are a single piece of
/// evidence — one query peak cannot be matched twice — so the first ion on
/// the m/z-sorted ladder claims the bin and later ions in the same bin are
/// dropped (first-hit wins). `total_ions` preserves the pre-dedup count for
/// PeakMatchStats::total_ions. `bins` is padded to a kLadderBlock multiple
/// with kLadderPadBin; `y_mask` holds one bit per lane (bit l of block b set
/// when entry b*kLadderBlock+l is a y-ion; padding lanes are zero).
struct IonLadder {
  std::vector<std::int32_t> bins;    ///< deduped, ascending, padded
  std::vector<std::uint8_t> y_mask;  ///< per-block y-ion lane bitmask
  std::size_t size = 0;              ///< distinct bins (before padding)
  std::size_t total_ions = 0;        ///< ions before per-bin dedup

  std::size_t block_count() const { return bins.size() / kLadderBlock; }
  void clear() {
    bins.clear();
    y_mask.clear();
    size = 0;
    total_ions = 0;
  }
};

/// Build the SoA ladder of `ions` (which must be m/z-ascending, as
/// fragment_ions emits them) on the floor(mz / bin_width) grid, into `out`
/// (reusing its buffers). Bins beyond int32 range are clamped to INT32_MAX —
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
/// result — bins, y_mask, size and total_ions — equals
/// build_ion_ladder(fragment_ions_into(peptide, {}, workspace), bin_width,
/// ladder), but it is built in one pass: residue-table prefix sums, the b/y
/// two-pointer merge on the identical m/z doubles, and binning with the
/// first-hit dedup straight into the ladder's buffers, with no FragmentIon
/// vector in between. Every kernel builds its ladders here; the two-step
/// path stays behind the reference kernel so the oracle is independent of
/// this builder. Throws InvalidArgument for a peptide shorter than 2, a
/// non-residue byte or a non-positive bin width.
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
