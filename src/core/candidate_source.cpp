#include "core/candidate_source.hpp"

#include <algorithm>

#include "scoring/shared_peak.hpp"
#include "util/error.hpp"

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

namespace {

/// The first position at or past `from` whose ordinal in `list` is at
/// least `target` (list.size() when none is), given that every position
/// before `from` holds a smaller one: one probe, then exponential steps and
/// a binary search of the last step.
std::uint32_t gallop(const wire::UnalignedSpan<std::uint32_t>& list,
                     std::uint32_t from, std::uint32_t target) {
  const std::size_t end = list.size();
  if (from == end || list[from] >= target) return from;
  std::size_t below = from;  // list[below] < target
  std::size_t probe = below + 1;
  for (std::size_t step = 1; probe < end && list[probe] < target; step *= 2) {
    below = probe;
    probe = below + step;
  }
  std::size_t lo = below + 1;
  std::size_t hi = std::min(probe, end);
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (list[mid] < target)
      lo = mid + 1;
    else
      hi = mid;
  }
  return static_cast<std::uint32_t>(lo);
}

}  // namespace

FragmentIndexCandidateSource::FragmentIndexCandidateSource(
    const FragmentView& fragment, std::size_t vote_gate)
    : fragment_(fragment),
      vote_gate_(vote_gate),
      votes_(fragment.candidate_count, 0),
      cursors_(fragment.bin_count()) {
  MSP_CHECK_MSG(vote_gate >= 1, "the fragment-index vote gate must be >= 1");
}

void FragmentIndexCandidateSource::collect(
    const QueryContext& /*context*/,
    std::span<const std::uint32_t> occupied_bins, std::size_t ordinal_lo,
    std::size_t ordinal_hi, std::vector<std::uint32_t>& out,
    ShardSearchStats& stats) {
  MSP_CHECK_MSG(ordinal_lo >= last_lo_ && ordinal_hi >= last_hi_,
                "fragment-index windows must ascend within one source");
  last_lo_ = ordinal_lo;
  last_hi_ = ordinal_hi;
  out.clear();
  const auto lo = static_cast<std::uint32_t>(ordinal_lo);
  const auto hi = static_cast<std::uint32_t>(ordinal_hi);
  for (const std::uint32_t bin : occupied_bins) {
    if (bin >= cursors_.size()) continue;  // out of the grid: no postings
    const wire::UnalignedSpan<std::uint32_t> list = fragment_.postings(bin);
    Cursor& cursor = cursors_[bin];
    cursor.lo = gallop(list, cursor.lo, lo);
    cursor.hi = gallop(list, std::max(cursor.hi, cursor.lo), hi);
    for (std::uint32_t i = cursor.lo; i < cursor.hi; ++i) ++votes_[list[i]];
    stats.postings_scanned += cursor.hi - cursor.lo;
  }
  // Ascending ordinals, the order the exhaustive source visits them in.
  for (std::uint32_t ordinal = lo; ordinal < hi; ++ordinal) {
    if (votes_[ordinal] >= vote_gate_) out.push_back(ordinal);
    votes_[ordinal] = 0;
  }
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
