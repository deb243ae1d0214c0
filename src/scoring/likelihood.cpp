#include "scoring/likelihood.hpp"

#include <algorithm>
#include <cmath>

#include "scoring/kernel.hpp"
#include "util/error.hpp"

namespace msp {

QueryContext::QueryContext(const Spectrum& spectrum, double bin_width,
                           const LikelihoodModel& model)
    : binned_(spectrum, bin_width),
      model_(model),
      parent_mass_(spectrum.parent_mass()) {
  MSP_CHECK_MSG(model.detection_rate > 0.0 && model.detection_rate < 1.0,
                "detection rate must be in (0,1)");
  // p0: occupied-bin density over the spectrum's own m/z span, i.e. the
  // probability that an arbitrary fragment m/z coincides with some query
  // peak purely by chance.
  const double span_bins =
      spectrum.empty()
          ? 1.0
          : std::max(1.0, (spectrum.max_mz() - spectrum.min_mz()) / bin_width);
  const double density =
      static_cast<double>(binned_.peak_bin_count()) / span_bins;
  background_ = std::clamp(density, model.min_background, model.max_background);

  double total = 0.0;
  std::size_t occupied = 0;
  for (float value : binned_.intensities()) {
    if (value > 0.0f) {
      total += value;
      ++occupied;
    }
  }
  mean_intensity_ = occupied == 0 ? 1.0 : total / static_cast<double>(occupied);

  const double p1 = model.detection_rate;
  log_match_ = std::log(p1 / background_);
  log_miss_ = std::log((1.0 - p1) / (1.0 - background_));
  inverse_mean_intensity_ = 1.0 / mean_intensity_;
}

double likelihood_ratio(const QueryContext& query, const IonLadder& ladder) {
  const double log_match = query.log_match();
  const double log_miss = query.log_miss();
  const double inv_mean = query.inverse_mean_intensity();

  // One Bernoulli trial per *distinct* ion bin: the blocked kernel returns
  // the matched bins' intensities in ascending-bin order (the canonical
  // accumulation order — identical for the scalar and SIMD backends), and
  // the unmatched trials collapse into one multiply.
  static thread_local std::vector<float> matched;
  const PeakMatchStats stats = match_ladder(query.binned(), ladder, &matched);
  double llr = 0.0;
  for (const float intensity : matched)
    llr += log_match + std::log1p(static_cast<double>(intensity) * inv_mean);
  const std::size_t matches = stats.matched_b + stats.matched_y;
  llr += static_cast<double>(ladder.size - matches) * log_miss;
  return llr;
}

double likelihood_ratio(const QueryContext& query,
                        const std::vector<FragmentIon>& ions) {
  static thread_local IonLadder ladder;
  build_ion_ladder(ions, query.binned().bin_width(), ladder);
  return likelihood_ratio(query, ladder);
}

double likelihood_ratio(const QueryContext& query, std::string_view peptide) {
  return likelihood_ratio(query, fragment_ions(peptide));
}

double likelihood_ratio_library(const QueryContext& query,
                                const Spectrum& library_spectrum) {
  const double log_match = query.log_match();
  const double log_miss = query.log_miss();
  const double inv_mean = query.inverse_mean_intensity();

  // Weight each expected peak by its consensus intensity (normalized to
  // mean 1 so library and model scores stay on one scale).
  double library_mean = 0.0;
  for (const Peak& peak : library_spectrum.peaks())
    library_mean += peak.intensity;
  if (library_spectrum.empty()) return 0.0;
  library_mean /= static_cast<double>(library_spectrum.size());
  if (library_mean <= 0.0) return 0.0;

  double llr = 0.0;
  for (const Peak& expected : library_spectrum.peaks()) {
    // Clamp the diagnostic weight: without a cap, one strong library peak
    // missing from a noisy query (dropout!) would swamp all other evidence
    // and put the library score on a different scale than the model score.
    const double weight =
        std::clamp(expected.intensity / library_mean, 0.25, 4.0);
    const double observed = query.binned().intensity_at(expected.mz);
    if (observed > 0.0) {
      llr += weight * (log_match + std::log1p(observed * inv_mean));
    } else {
      llr += weight * log_miss;
    }
  }
  return llr;
}

}  // namespace msp
