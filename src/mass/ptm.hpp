// Post-translational modifications (PTMs).
//
// The paper's related-work discussion singles out PTM support as a feature
// that multiplies the candidate space (Fig. 1b) and that X!Tandem's parallel
// variants either lack or bolt on. We model the standard variable-PTM
// search: each PTM adds a fixed mass delta to a residue type, and a peptide
// variant chooses a subset of its modifiable sites, bounded by
// `max_mods_per_peptide`.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace msp {

/// One modification rule: residues of type `residue` may gain `mass_delta`.
struct Ptm {
  char residue = 0;        ///< e.g. 'S' for phosphoserine
  double mass_delta = 0.0; ///< e.g. +79.96633 for phosphorylation
  std::string name;        ///< e.g. "Phospho"
};

/// Commonly searched variable modifications, for examples and benchmarks.
Ptm ptm_phospho_s();       ///< +79.96633 on S
Ptm ptm_phospho_t();       ///< +79.96633 on T
Ptm ptm_oxidation_m();     ///< +15.99491 on M
Ptm ptm_acetyl_k();        ///< +42.01057 on K

/// One concrete assignment of modifications to sites of a peptide.
struct PtmVariant {
  /// Site indices (into the peptide) that carry a modification, paired with
  /// the PTM index (into the rule list) applied at that site. Sorted by site.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> sites;
  double mass_delta = 0.0;  ///< total added mass
};

/// Enumerate all variants of `peptide` under `rules` with at most
/// `max_mods` modified sites (the unmodified variant is always first).
/// The count grows as sum_k C(sites, k); callers cap max_mods (typ. 2-3).
std::vector<PtmVariant> enumerate_variants(std::string_view peptide,
                                           const std::vector<Ptm>& rules,
                                           std::size_t max_mods);

/// Number of variants enumerate_variants would return, without materializing
/// them — used by the Fig. 1b candidate-magnitude model.
std::uint64_t count_variants(std::string_view peptide,
                             const std::vector<Ptm>& rules,
                             std::size_t max_mods);

/// Human-readable form, e.g. "PEPS[+79.97]TIDE".
std::string annotate(std::string_view peptide, const PtmVariant& variant,
                     const std::vector<Ptm>& rules);

/// Extreme total mass deltas any variant under `rules` can carry with at
/// most `max_mods` modified sites: min_total ≤ 0 ≤ max_total always (the
/// unmodified variant contributes zero). This is the one definition both
/// the open-search kernels and mass routing widen their precursor windows
/// by, so a skip decision and a scoring decision can never disagree.
struct PtmDeltaRange {
  double min_total = 0.0;
  double max_total = 0.0;
};

inline PtmDeltaRange ptm_delta_range(const std::vector<Ptm>& rules,
                                     std::size_t max_mods) {
  PtmDeltaRange range;
  if (rules.empty() || max_mods == 0) return range;
  double min_delta = 0.0;
  double max_delta = 0.0;
  for (const Ptm& rule : rules) {
    min_delta = std::min(min_delta, rule.mass_delta);
    max_delta = std::max(max_delta, rule.mass_delta);
  }
  const double mods = static_cast<double>(max_mods);
  range.min_total = min_delta * mods;
  range.max_total = max_delta * mods;
  return range;
}

}  // namespace msp
