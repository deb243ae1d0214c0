// The blocked ion-ladder scoring kernel — the hot loop every score model
// funnels through.
//
// A candidate's ions are pre-binned into an IonLadder (two ascending,
// disjoint streams of int32 bins — the b ions' then the y ions' —
// deduplicated per bin and padded to kLadderBlock lanes); matching against
// a query is then a blocked gather over the query's binned intensities with
// a per-block bitmask of matched lanes — no floating-point division per
// ion, no branch per ion type (a lane's stream is its type). The backends
// implement the identical canonical semantics:
//
//  - scalar: portable C++, always compiled — the configure-time fallback
//    (cmake -DMSPAR_SIMD=OFF builds only this one).
//  - simd:   GNU vector extensions (GCC/Clang), compiled when MSPAR_SIMD is
//    on; vectorizes the in-range test and the match compare, with an AVX2
//    hardware-gather path where the CPU has it (match_ladder_vector is the
//    generic-vector path on any CPU).
//
// Bit-identity contract: every backend performs every floating-point
// accumulation in the same canonical order — ascending bin order across
// both streams, the order of the single merged ladder — on the same
// values, so scores are bit-identical between backends by construction
// (integer counts are order-free; the SIMD lanes only decide *which* lanes
// contribute, never the order they are summed in). The walk visits the b
// stream before the y stream; one shared fold sums the selected lanes as
// they come and, when a selected y bin lies below a selected b bin, sums
// them again in bin order. The engine's oracle tests then extend that
// identity to hits.
//
// The active backend is a process-global switch (kAuto = simd when
// compiled): benches and the scalar/SIMD property tests flip it at runtime
// so one binary can measure and compare both paths.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "scoring/shared_peak.hpp"
#include "spectra/spectrum.hpp"
#include "spectra/theoretical.hpp"

namespace msp {

enum class ScoringBackend : unsigned char {
  kAuto,    ///< simd when compiled in, else scalar (the default)
  kScalar,  ///< force the portable fallback
  kSimd,    ///< force the vectorized kernel (throws if not compiled)
};

/// True when the vectorized kernel was compiled in (MSPAR_SIMD).
bool simd_compiled();

/// Select the backend process-wide. Throws InvalidArgument for kSimd in a
/// scalar-only build. Safe to call between searches; not synchronized with
/// concurrently running kernels (flip it only while no search is active).
void set_scoring_backend(ScoringBackend backend);
ScoringBackend scoring_backend();

/// The backend the next kernel call will actually run (kAuto resolved).
ScoringBackend active_scoring_backend();

/// Match a candidate's ladder against the query's binned intensities:
/// matched_b / matched_y count *distinct* matched bins of the b and the y
/// stream (the type of the ion that claimed the bin), total_ions is the
/// pre-dedup ion count, and matched_intensity sums the matched bins'
/// intensities in ascending bin order across both streams. When `matched_out` is non-null it is cleared and filled with the
/// matched intensities in that same order (the likelihood model's per-match
/// evidence terms need the individual values).
PeakMatchStats match_ladder(const BinnedSpectrum& query,
                            const IonLadder& ladder,
                            std::vector<float>* matched_out = nullptr);

/// Dot product of a per-bin weight vector against the ladder: sums
/// weights[bin] over in-grid ladder bins in ascending bin order across both
/// streams (the Xcorr score's inner loop; weights may be negative).
double ladder_dot(std::span<const float> weights, const IonLadder& ladder);

/// Backend-explicit forms, for the bit-identity property tests and benches.
PeakMatchStats match_ladder_scalar(const BinnedSpectrum& query,
                                   const IonLadder& ladder,
                                   std::vector<float>* matched_out = nullptr);
PeakMatchStats match_ladder_simd(const BinnedSpectrum& query,
                                 const IonLadder& ladder,
                                 std::vector<float>* matched_out = nullptr);
/// The generic-vector kernel match_ladder_simd runs where the CPU lacks
/// AVX2, callable on any CPU so tests reach it everywhere.
PeakMatchStats match_ladder_vector(const BinnedSpectrum& query,
                                   const IonLadder& ladder,
                                   std::vector<float>* matched_out = nullptr);
double ladder_dot_scalar(std::span<const float> weights,
                         const IonLadder& ladder);
double ladder_dot_simd(std::span<const float> weights, const IonLadder& ladder);

}  // namespace msp
