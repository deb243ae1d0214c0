#include "core/candidate_source.hpp"

#include <algorithm>

#include "scoring/shared_peak.hpp"

namespace msp {

void MassWindowCandidateSource::collect(
    const QueryContext& context,
    std::span<const std::uint32_t> /*occupied_bins*/, std::size_t ordinal_lo,
    std::size_t ordinal_hi, std::vector<std::uint32_t>& out,
    ShardSearchStats& stats) {
  out.clear();
  for (std::size_t c = ordinal_lo; c < ordinal_hi; ++c) {
    const IndexedCandidate& entry = shard_.entries[c];
    const std::string_view peptide =
        shard_.proteins[entry.protein].residues.substr(entry.offset,
                                                       entry.length);
    build_peptide_ladder(peptide, context.binned().bin_width(), workspace_);
    ++stats.ions_built;
    const std::size_t votes =
        shared_peak_count(context.binned(), workspace_.ladder);
    if (votes < vote_gate_) {
      ++stats.candidates_prefiltered;
      continue;
    }
    out.push_back(static_cast<std::uint32_t>(c));
  }
}

void FragmentIndexCandidateSource::collect(
    const QueryContext& /*context*/,
    std::span<const std::uint32_t> occupied_bins, std::size_t ordinal_lo,
    std::size_t ordinal_hi, std::vector<std::uint32_t>& out,
    ShardSearchStats& stats) {
  out.clear();
  const auto lo = static_cast<std::uint32_t>(ordinal_lo);
  const auto hi = static_cast<std::uint32_t>(ordinal_hi);
  for (const std::uint32_t bin : occupied_bins) {
    const wire::UnalignedSpan<std::uint32_t> list = fragment_.postings(bin);
    // Posting lists are ordinal-ascending (= mass-ascending), so the
    // precursor window restricts each to one contiguous slice.
    for (std::size_t i = list.lower_bound(lo); i < list.size(); ++i) {
      const std::uint32_t ordinal = list[i];
      if (ordinal >= hi) break;
      ++stats.postings_scanned;
      if (votes_[ordinal] == 0) touched_.push_back(ordinal);
      ++votes_[ordinal];
    }
  }
  for (const std::uint32_t ordinal : touched_)
    if (votes_[ordinal] >= vote_gate_) out.push_back(ordinal);
  // Touch order is bin order, not ordinal order: restore the ascending
  // visit order the exhaustive source produces so the scoring loops offer
  // hits identically (TopK is order-invariant, but determinism is easier
  // to see — and to test — with one canonical order).
  std::sort(out.begin(), out.end());
  for (const std::uint32_t ordinal : touched_) votes_[ordinal] = 0;
  touched_.clear();
}

std::vector<std::uint32_t> occupied_bins(const BinnedSpectrum& binned) {
  std::vector<std::uint32_t> bins;
  const std::vector<float>& intensities = binned.intensities();
  bins.reserve(binned.peak_bin_count());
  for (std::size_t b = 0; b < intensities.size(); ++b)
    if (intensities[b] > 0.0f) bins.push_back(static_cast<std::uint32_t>(b));
  return bins;
}

}  // namespace msp
