#include "scoring/xcorr.hpp"

#include <cstddef>

#include "scoring/kernel.hpp"
#include "util/error.hpp"

namespace msp {

XcorrContext::XcorrContext(const BinnedSpectrum& binned, int half_window)
    : half_window_(half_window) {
  MSP_CHECK_MSG(half_window >= 1, "xcorr half window must be >= 1");
  const std::vector<float>& x = binned.intensities();
  const std::size_t n = x.size();
  weights_.resize(n);
  if (n == 0) return;
  // Sliding background window: one running sum updated per bin instead of
  // 151 passes. Accumulated in double so the stored float weights do not
  // depend on summation round-off order across bins.
  const auto h = static_cast<std::size_t>(half_window);
  const double inv = 1.0 / (2.0 * static_cast<double>(half_window));
  double window = 0.0;
  for (std::size_t j = 0; j < n && j <= h; ++j) window += x[j];
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) {
      if (i + h < n) window += x[i + h];
      if (i >= h + 1) window -= x[i - h - 1];
    }
    weights_[i] =
        static_cast<float>(static_cast<double>(x[i]) -
                           (window - static_cast<double>(x[i])) * inv);
  }
}

double xcorr(const XcorrContext& context, const IonLadder& ladder) {
  return ladder_dot(context.weights(), ladder);
}

double xcorr_reference(const BinnedSpectrum& binned,
                       const std::vector<FragmentIon>& ions, int half_window) {
  MSP_CHECK_MSG(half_window >= 1, "xcorr half window must be >= 1");
  // The same deduplicated unit ladder the fast path scores (two ions in one
  // bin are one piece of evidence under every model, Xcorr included).
  IonLadder ladder;
  build_ion_ladder(ions, binned.bin_width(), ladder);
  const std::vector<float>& x = binned.intensities();
  const auto n = static_cast<std::int64_t>(x.size());
  double at_zero = 0.0;
  double shifted_total = 0.0;
  for_each_ladder_bin(ladder, [&](std::int64_t bin) {
    if (bin < 0 || bin >= n) return;
    at_zero += x[static_cast<std::size_t>(bin)];
    for (int tau = -half_window; tau <= half_window; ++tau) {
      if (tau == 0) continue;
      const std::int64_t j = bin + tau;
      if (j >= 0 && j < n) shifted_total += x[static_cast<std::size_t>(j)];
    }
  });
  return at_zero - shifted_total / (2.0 * static_cast<double>(half_window));
}

}  // namespace msp
