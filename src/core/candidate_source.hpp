// Candidate sources: where the open-search kernel gets its candidates.
//
// Narrow-window search merge-joins the mass-sorted CandidateIndex against
// the sorted query hypotheses — cheap, because a ±δ window holds a handful
// of candidates. Open/PTM search widens the window by orders of magnitude,
// so candidate *generation* (building each windowed candidate's ion ladder
// just to discover it shares no peaks with the query) dominates. The
// CandidateSource abstraction separates "which windowed candidates deserve
// a full score" from the scoring loop:
//
//  - MassWindowCandidateSource: exhaustive enumeration — builds every
//    windowed candidate's ions and counts its matched ions directly. The
//    ablation baseline, and the fallback when the caller supplies no
//    fragment index (the serial engine).
//  - FragmentIndexCandidateSource: walks the query's occupied bins through
//    the shard's fragment-index postings (a FragmentView, read where they
//    live), counting per-candidate votes without touching non-matching
//    candidates at all.
//
// Both compute the *identical* integer votes (shared_peak_count over the
// same default b/y ladder and the same global bin grid) and apply the
// identical gate, so they admit the identical candidate set — the kernel
// above them then produces bit-identical hits whichever source is plugged
// in. A source instance is per-thread scratch: collect() mutates internal
// state (the indexed source's cursors follow one ascending run of windows)
// and must not be shared across the kernel fan-out.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/candidate_index.hpp"
#include "core/fragment_index.hpp"
#include "core/search_engine.hpp"
#include "core/shard_view.hpp"
#include "mass/peptide.hpp"
#include "scoring/likelihood.hpp"
#include "spectra/theoretical.hpp"

namespace msp {

class CandidateSource {
 public:
  virtual ~CandidateSource() = default;

  /// True when collect() already built each inspected candidate's ion
  /// ladder (and charged stats.ions_built for it) — the scoring loop then
  /// reuses the build instead of charging a second one per survivor.
  virtual bool ions_prebuilt() const = 0;

  /// Gather into `out` (cleared first) the ordinals — ascending, indexing
  /// the shard's entries — of candidates in the ordinal window
  /// [ordinal_lo, ordinal_hi) whose matched-ion count against `context`
  /// reaches the vote gate. `occupied_bins` lists the bins of
  /// context.binned() with nonzero intensity, ascending (only the
  /// fragment-index source consumes it).
  virtual void collect(const QueryContext& context,
                       std::span<const std::uint32_t> occupied_bins,
                       std::size_t ordinal_lo, std::size_t ordinal_hi,
                       std::vector<std::uint32_t>& out,
                       ShardSearchStats& stats) = 0;
};

/// Exhaustive open search: inspect every candidate in the ordinal window,
/// build its ions (charged per inspection — generation is what makes this
/// source expensive), count matched ions directly, gate.
class MassWindowCandidateSource final : public CandidateSource {
 public:
  MassWindowCandidateSource(const ShardView& shard, std::size_t vote_gate)
      : shard_(shard), vote_gate_(vote_gate) {}

  bool ions_prebuilt() const override { return true; }
  void collect(const QueryContext& context,
               std::span<const std::uint32_t> occupied_bins,
               std::size_t ordinal_lo, std::size_t ordinal_hi,
               std::vector<std::uint32_t>& out,
               ShardSearchStats& stats) override;

 private:
  const ShardView& shard_;
  std::size_t vote_gate_;
  FragmentIonWorkspace workspace_;
};

/// Indexed open search: accumulate votes by counting the postings of the
/// query's occupied bins that fall in the ordinal window, then gate.
///
/// One source serves one ascending run of hypotheses (a kernel block), and
/// its successive windows never move down: both ends ascend with the
/// hypothesis mass. So each posting list (ordinal-ascending) is walked only
/// forward. Per bin, two cursors mark the first posting at or above the last
/// window's lo and hi; each call gallops them forward to its own window
/// (a probe, then exponential steps and a binary search, so a block that
/// starts mid-sequence pays O(log) per bin), and the postings between them
/// are counted into a dense per-ordinal array with no per-posting test. One
/// ascending scan of the window then emits the gated ordinals and zeroes the
/// counts. `postings_scanned` counts the in-window postings of the occupied
/// bins. Candidates sharing no bin with the query are never counted — the
/// 100–1000x candidate inflation of the open window costs postings, not ion
/// builds.
class FragmentIndexCandidateSource final : public CandidateSource {
 public:
  /// `vote_gate` must be at least 1: the window scan emits only counted
  /// candidates because a zero count never reaches the gate.
  FragmentIndexCandidateSource(const FragmentView& fragment,
                               std::size_t vote_gate);

  bool ions_prebuilt() const override { return false; }
  /// The window [ordinal_lo, ordinal_hi) must not lie below the previous
  /// call's: neither end may decrease (MSP_CHECK).
  void collect(const QueryContext& context,
               std::span<const std::uint32_t> occupied_bins,
               std::size_t ordinal_lo, std::size_t ordinal_hi,
               std::vector<std::uint32_t>& out,
               ShardSearchStats& stats) override;

 private:
  /// Positions in one bin's posting list (whose length the record stores
  /// as a u32): its first ordinal at or above the last window's lo and hi.
  struct Cursor {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
  };

  const FragmentView& fragment_;
  std::size_t vote_gate_;
  std::vector<std::uint32_t> votes_;  ///< per ordinal; zero outside a call
  std::vector<Cursor> cursors_;       ///< per bin
  std::size_t last_lo_ = 0;
  std::size_t last_hi_ = 0;
};

/// The occupied-bin list collect() wants: every global bin of `binned` with
/// nonzero intensity, ascending — the query-side half of the inverted
/// lookup (ions land in bins via the identical floor(mz / width) grid).
std::vector<std::uint32_t> occupied_bins(const BinnedSpectrum& binned);

}  // namespace msp
