// Per-shard fragment-ion index: the open-search candidate source.
//
// Open/PTM search widens the precursor window from ±δ to ±hundreds of
// daltons, inflating candidates per query by 100–1000x; exhaustively
// building every windowed candidate's ion ladder is then the dominant cost
// (HiCOPS's observation). The fragment-ion index inverts that work: at pack
// time — next to the CandidateIndex — every candidate's theoretical b/y
// ions are binned on the same global grid BinnedSpectrum uses
// (bin = floor(mz / bin_width)), and the index stores, per ion bin, the
// ordinals of the candidates owning an ion in that bin (CSR layout). An
// open-search lookup then walks only the query's *occupied* bins,
// accumulating per-candidate matched-ion counts ("votes") that equal
// shared_peak_count() exactly — candidate ordinals are CandidateIndex entry
// order, which is mass-ascending, so the precursor window restricts each
// posting list to one contiguous ordinal range. Only candidates at or above
// the vote gate are ever fully scored, and because the exhaustive source
// computes the identical integer votes the two sources admit the identical
// candidate set: bit-identical hits by construction (DESIGN.md §5i).
//
// The index has one format: a versioned magic-tagged record ("MSPARFRG").
// put_fragment_index lays it out and get_fragment_view decodes it, and
// nothing else touches the CSR. A shard image carries the record behind
// its CandidateIndex whenever open search uses one, and the kernel reads
// it there, through a FragmentView; a FragmentIndex owns one record and
// its view (the serial engine's in-place build).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/candidate_index.hpp"
#include "io/wire_record.hpp"
#include "mass/peptide.hpp"

namespace msp {

/// The parameters a fragment index was built under. Valid only for engines
/// whose SearchConfig agrees on the enumeration parameters AND the bin
/// width (votes are bin-occupancy counts — a different grid is a different
/// gate); the engine checks both before searching.
struct FragmentIndexParams {
  CandidateIndexParams index_params;
  double bin_width = 0.0;

  friend bool operator==(const FragmentIndexParams& a,
                         const FragmentIndexParams& b) = default;
};

/// A fragment index as the kernel reads it. The posting ordinals are
/// borrowed — from a FragmentIndex's record, or in place from a shard
/// image, where they sit at whatever alignment the image's layout leaves
/// them — and the CSR row starts are derived (a record stores per-bin
/// counts).
struct FragmentView {
  FragmentIndexParams params;
  std::uint64_t candidate_count = 0;    ///< ordinal bound
  std::vector<std::uint64_t> starts;    ///< CSR row starts, bin_count + 1
  wire::UnalignedSpan<std::uint32_t> ordinals;  ///< every posting, by bin

  std::uint32_t bin_count() const {
    return starts.empty() ? 0 : static_cast<std::uint32_t>(starts.size() - 1);
  }
  std::size_t posting_count() const { return ordinals.size(); }

  /// The postings of `bin`, strictly ordinal-ascending; empty for
  /// out-of-grid bins.
  wire::UnalignedSpan<std::uint32_t> postings(std::uint32_t bin) const {
    if (bin >= bin_count()) return {};
    return ordinals.subspan(starts[bin], starts[bin + 1] - starts[bin]);
  }

  /// Same parameters, starts and ordinals.
  friend bool operator==(const FragmentView& a, const FragmentView& b);
};

/// One shard's fragment index, owned: the MSPARFRG record
/// put_fragment_index writes, and the FragmentView get_fragment_view takes
/// of it. Move-only: a move hands the bytes over together with their view
/// and leaves the source empty, so no view reads another object's bytes.
class FragmentIndex {
 public:
  FragmentIndex() = default;
  FragmentIndex(FragmentIndex&& other) noexcept;
  FragmentIndex& operator=(FragmentIndex&& other) noexcept;
  FragmentIndex(const FragmentIndex&) = delete;
  FragmentIndex& operator=(const FragmentIndex&) = delete;

  /// Build from a shard and its CandidateIndex: every entry's theoretical
  /// ions (default TheoreticalOptions — the exact ladder the kernels score)
  /// binned at floor(mz / bin_width). Deterministic: entries are visited in
  /// index order, so each bin's postings come out strictly ordinal-ascending
  /// (which is mass-ascending) with one posting per *distinct* (candidate,
  /// bin) — two ions of one candidate landing in one bin are a single vote,
  /// exactly as the deduplicated shared_peak_count counts them.
  static FragmentIndex build(const ProteinDatabase& shard,
                             const CandidateIndex& index, double bin_width);
  /// The same build over a shard's protein table and mass-sorted entries
  /// (built under `params`), wherever they live.
  static FragmentIndex build(std::span<const ProteinView> proteins,
                             std::span<const IndexedCandidate> entries,
                             const CandidateIndexParams& params,
                             double bin_width);

  /// The record's bytes: what a shard image carries as its trailer.
  std::span<const char> bytes() const { return bytes_; }
  /// The record as the kernel reads it; its ordinals lie in bytes().
  const FragmentView& view() const { return view_; }
  std::size_t posting_count() const { return view_.posting_count(); }

 private:
  std::vector<char> bytes_;
  FragmentView view_;
};

/// Append the "MSPARFRG" record of the fragment index over a shard's
/// protein table and mass-sorted entries (built under `params`): a
/// versioned, magic-tagged header, the per-bin counts, then the postings,
/// scattered straight into the writer. The one writer of the CSR layout;
/// FragmentIndex::build and the shard images both call it. Returns the
/// posting count.
std::uint64_t put_fragment_index(wire::Writer& writer,
                                 std::span<const ProteinView> proteins,
                                 std::span<const IndexedCandidate> entries,
                                 const CandidateIndexParams& params,
                                 double bin_width);

/// True when the reader is positioned at a fragment-index record's magic.
bool peek_fragment_index(wire::Reader& reader);

/// Validate a fragment-index record where it sits: magic, version, and the
/// CSR invariants (positive finite bin width, per-bin counts summing to the
/// posting count, ordinals inside the candidate range, strictly
/// ordinal-ascending posting lists). Throws IoError with a specific message
/// on any violation. The view's ordinals borrow the reader's payload. The
/// one decoder of the CSR layout.
FragmentView get_fragment_view(wire::Reader& reader);

}  // namespace msp
