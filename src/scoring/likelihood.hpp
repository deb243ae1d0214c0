// Likelihood-ratio scoring (the MSPolygraph statistical model).
//
// Cannon et al. 2005 compare, for each candidate, the probability of the
// observed spectrum under (H1) "the candidate generated it" against (H0)
// "a random peptide of the same parent mass generated it", and report the
// log-likelihood ratio; a hit requires the ratio to clear a cutoff
// (Section II-A of the ICPP paper). We realize that with a per-ion Bernoulli
// match model:
//
//   H1: each theoretical ion of the candidate is observed (lands in an
//       occupied query bin) with probability p1 (instrument detection rate).
//   H0: a random peptide's ion lands in an occupied bin with probability
//       p0 = (occupied bins / bins in the query's m/z span) — the chance
//       alignment rate actually measured from this query's peak density.
//
//   LLR = Σ_ions [ matched · ln(p1/p0) + (1-matched) · ln((1-p1)/(1-p0)) ]
//       + intensity evidence: matched peaks contribute ln(1 + I/I_mean),
//         since true fragment peaks are systematically more intense than
//         chance matches.
//
// This is deliberately heavier per candidate than the hyperscore — the
// paper's whole premise is that the accurate model costs more compute and
// therefore *needs* the parallel machinery.
#pragma once

#include <optional>
#include <string_view>

#include "scoring/shared_peak.hpp"
#include "scoring/xcorr.hpp"
#include "spectra/spectrum.hpp"

namespace msp {

struct LikelihoodModel {
  double detection_rate = 0.75;  ///< p1: P(true fragment ion observed)
  double min_background = 1e-4;  ///< clamp for p0 on sparse spectra
  double max_background = 0.5;   ///< clamp for p0 on dense spectra
};

/// Per-query precomputation shared across all of its candidates: the binned
/// form, the background match probability p0, the mean bin intensity, and
/// the likelihood terms that depend only on them — computed once here
/// instead of once per (query, candidate) pair.
class QueryContext {
 public:
  explicit QueryContext(const Spectrum& spectrum,
                        double bin_width = kDefaultBinWidth,
                        const LikelihoodModel& model = {});

  const BinnedSpectrum& binned() const { return binned_; }
  double background_rate() const { return background_; }
  double mean_intensity() const { return mean_intensity_; }
  double parent_mass() const { return parent_mass_; }
  const LikelihoodModel& model() const { return model_; }
  /// ln(p1 / p0): the log-likelihood term of one matched ion.
  double log_match() const { return log_match_; }
  /// ln((1 − p1) / (1 − p0)): the log-likelihood term of one missed ion.
  double log_miss() const { return log_miss_; }
  /// 1 / mean_intensity(), the intensity-evidence scale.
  double inverse_mean_intensity() const { return inverse_mean_intensity_; }

  /// Build the Xcorr preprocessing (idempotent). The engine calls this in
  /// prepare() when its config runs ScoreModel::kXcorr, so every driver and
  /// the serve path share one per-query build.
  void enable_xcorr() {
    if (!xcorr_) xcorr_.emplace(binned_);
  }
  /// Null until enable_xcorr(); scoring under kXcorr requires it.
  const XcorrContext* xcorr() const { return xcorr_ ? &*xcorr_ : nullptr; }

 private:
  BinnedSpectrum binned_;
  LikelihoodModel model_;
  double background_ = 0.0;
  double mean_intensity_ = 0.0;
  double log_match_ = 0.0;
  double log_miss_ = 0.0;
  double inverse_mean_intensity_ = 0.0;
  double parent_mass_ = 0.0;
  std::optional<XcorrContext> xcorr_;
};

/// Log-likelihood ratio of the candidate vs. the random-peptide null. The
/// ladder form is primary (the engine builds each candidate's ladder once
/// and reuses it across every matching query); evidence is counted per
/// *distinct* ion bin — matched bins contribute the match term plus the
/// intensity evidence in ascending-bin order, unmatched bins the miss term
/// — so a duplicate-bin ladder cannot double-count one query peak. The ions
/// and string overloads funnel through the same kernel (bit-identical).
double likelihood_ratio(const QueryContext& query, const IonLadder& ladder);
double likelihood_ratio(const QueryContext& query,
                        const std::vector<FragmentIon>& ions);
double likelihood_ratio(const QueryContext& query, std::string_view peptide);

/// Library variant (MSPolygraph's hybrid mode): score against a measured
/// consensus spectrum instead of the idealized b/y model. Each library
/// peak acts as an expected ion weighted by its consensus intensity —
/// strong, reproducible fragments are more diagnostic than weak ones,
/// which is exactly the accuracy edge libraries give.
double likelihood_ratio_library(const QueryContext& query,
                                const Spectrum& library_spectrum);

}  // namespace msp
