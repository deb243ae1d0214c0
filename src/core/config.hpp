// Search configuration shared by every engine variant.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mass/ptm.hpp"
#include "spectra/library.hpp"
#include "spectra/preprocess.hpp"
#include "spectra/spectrum.hpp"

/// Default for SearchConfig::kernel_threads; override at configure time with
/// -DMSPAR_KERNEL_THREADS_DEFAULT=<n> to exercise the threaded kernel
/// everywhere (CI runs the full test suite this way once).
#ifndef MSPAR_DEFAULT_KERNEL_THREADS
#define MSPAR_DEFAULT_KERNEL_THREADS 1
#endif

namespace msp {

enum class ScoreModel : std::uint8_t {
  kLikelihood,  ///< MSPolygraph's accurate model (default; the paper's point)
  kHyperscore,  ///< X!Tandem-style fast baseline
  kSharedPeak,  ///< simplest; used by tests for hand-checkable scores
  kXcorr,       ///< SEQUEST-style cross-correlation (fast formulation)
};

enum class CandidateSourceKind : std::uint8_t {
  /// Use the shard's fragment-ion index when the caller supplies one (every
  /// parallel driver ships it with the shard image), else fall back to
  /// exhaustive mass-window enumeration (the serial engine's path).
  kAuto,
  /// Force exhaustive mass-window enumeration (the ablation baseline).
  kMassWindow,
  /// Force the fragment-ion index, building one in place when the caller
  /// did not supply it.
  kFragmentIndex,
};

enum class CandidateMode : std::uint8_t {
  /// The paper's Section II-A rule: candidates are prefixes or suffixes of
  /// database sequences with mass in m(q) ± δ. This is the mode every
  /// complexity bound and benchmark in the reproduction uses.
  kPrefixSuffix,
  /// Extension: candidates are tryptic peptides (internal substrings with
  /// enzymatic termini, bounded missed cleavages) — what production engines
  /// (SEQUEST/X!Tandem/MSPolygraph in digest mode) enumerate. The parallel
  /// algorithms are agnostic to this choice; it only changes the kernel.
  kTryptic,
};

struct SearchConfig {
  /// Parent-mass tolerance δ: a fragment is a candidate for query q iff its
  /// mass lies within m(q) ± δ (Section II-A).
  double tolerance_da = 3.0;
  /// τ: hits retained per query (paper: "between 10 and 1,000").
  std::size_t tau = 10;
  /// Candidate length guards: fragments outside are not even windowed.
  std::size_t min_candidate_length = 6;
  std::size_t max_candidate_length = 100;
  ScoreModel model = ScoreModel::kLikelihood;
  CandidateMode candidate_mode = CandidateMode::kPrefixSuffix;
  /// Missed cleavages allowed in kTryptic candidate enumeration.
  std::size_t candidate_missed_cleavages = 2;
  double bin_width = kDefaultBinWidth;
  /// Minimum score for a candidate to be reported at all (the paper's
  /// "user-specified cutoff"); -inf semantics via a very low default.
  double score_cutoff = -1e18;
  /// X!!Tandem-style aggressive prefiltering (Section I-A: its speed comes
  /// from "a fairly simple, fast statistical model, and an aggressive
  /// prefiltering step that could miss true predictions"): candidates are
  /// first screened with a cheap shared-peak count and only survivors get
  /// the full model score. Off by default — MSPolygraph's accuracy-first
  /// stance is the paper's whole point; bench_quality measures the trade.
  bool prefilter = false;
  std::size_t prefilter_min_shared_peaks = 4;
  /// Charge-state ambiguity handling: low-resolution instruments often
  /// cannot assign the precursor charge, so the reported value may be
  /// wrong. When enabled, every query is searched under a parent-mass
  /// hypothesis for EACH charge in `charge_hypotheses` (its precursor m/z
  /// reinterpreted at that z) in addition to nothing else — the reported
  /// charge is only one of the hypotheses. Off by default.
  bool try_alternate_charges = false;
  std::vector<int> charge_hypotheses = {1, 2, 3};
  /// Optional spectral library (MSPolygraph's hybrid mode, Section I-A):
  /// candidates with a library entry are scored against the measured
  /// consensus spectrum; the rest fall back to the on-the-fly b/y model.
  /// Non-owning; must outlive every engine built from this config. Only
  /// consulted under ScoreModel::kLikelihood.
  const SpectralLibrary* library = nullptr;
  PreprocessOptions preprocess;
  /// --- Open / PTM search (the OMSSA/MSFragger regime) ---------------------
  /// Extra precursor window beyond tolerance_da, applied on both sides: a
  /// candidate of mass M matches hypothesis mass m iff
  /// M ∈ [m − window_below(), m + window_above()]. Zero (with no PTM rules)
  /// is the paper's narrow-window search, bit-for-bit unchanged.
  double open_window_da = 0.0;
  /// Variable-modification rules: the precursor window additionally widens
  /// by the extreme total deltas any variant can carry (ptm_delta_range with
  /// max_ptm_mods), so a query whose precursor was shifted by modifications
  /// still reaches its unmodified base peptide. Candidates are scored on the
  /// unmodified b/y ladder (the open-search convention: fragments away from
  /// the modified site still match).
  std::vector<Ptm> ptms;
  std::size_t max_ptm_mods = 2;
  /// Open-search vote gate: a candidate inside the widened window is fully
  /// scored only when at least this many of its theoretical ions land in
  /// occupied query bins (exactly shared_peak_count). Part of the open-
  /// search *definition* — both the indexed and the exhaustive candidate
  /// sources apply it, which is what makes them provably hit-identical.
  /// Must be ≥ 1: a zero-vote candidate is invisible to an inverted index.
  std::size_t min_fragment_votes = 2;
  /// Which candidate source the open-search kernel uses (narrow-window
  /// search always merge-joins the CandidateIndex and ignores this).
  CandidateSourceKind candidate_source = CandidateSourceKind::kAuto;

  bool open_search() const { return open_window_da > 0.0 || !ptms.empty(); }
  /// How far below a hypothesis mass candidate masses may lie (a +Δ variant
  /// is observed Δ above its base peptide, so positive deltas widen below).
  double window_below() const {
    const PtmDeltaRange range = ptm_delta_range(ptms, max_ptm_mods);
    return tolerance_da + open_window_da + std::max(0.0, range.max_total);
  }
  double window_above() const {
    const PtmDeltaRange range = ptm_delta_range(ptms, max_ptm_mods);
    return tolerance_da + open_window_da + std::max(0.0, -range.min_total);
  }
  /// The effective open-search vote gate: composes with the prefilter knob
  /// (a survivor of the votes gate must also survive the configured
  /// prefilter, and the screen is the same shared-peak count).
  std::size_t vote_gate() const {
    return std::max(min_fragment_votes,
                    prefilter ? prefilter_min_shared_peaks : std::size_t{0});
  }

  /// Intra-rank threading of the scoring kernel: one simulated rank fans its
  /// shard search over this many OS threads (index blocks, per-thread top-τ
  /// lists merged under the total hit order). Purely an implementation-level
  /// speedup — hits and virtual-clock counters are identical for every
  /// setting. The default is compile-time configurable so CI can run the
  /// whole suite threaded (-DMSPAR_KERNEL_THREADS_DEFAULT=4).
  std::size_t kernel_threads = MSPAR_DEFAULT_KERNEL_THREADS;
};

}  // namespace msp
