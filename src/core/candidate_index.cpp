#include "core/candidate_index.hpp"

#include <algorithm>

#include "mass/amino_acid.hpp"
#include "mass/digest.hpp"
#include "util/error.hpp"

namespace msp {

CandidateIndexParams CandidateIndexParams::from(const SearchConfig& config) {
  CandidateIndexParams params;
  params.mode = config.candidate_mode;
  params.min_length = static_cast<std::uint32_t>(config.min_candidate_length);
  params.max_length = static_cast<std::uint32_t>(config.max_candidate_length);
  params.missed_cleavages =
      config.candidate_mode == CandidateMode::kTryptic
          ? static_cast<std::uint32_t>(config.candidate_missed_cleavages)
          : 0;
  return params;
}

CandidateIndex::CandidateIndex(CandidateIndexParams params,
                               std::vector<IndexedCandidate> entries,
                               MassEnvelope envelope)
    : params_(params), entries_(std::move(entries)), envelope_(envelope) {}

CandidateIndex CandidateIndex::build(const ProteinDatabase& shard,
                                     const SearchConfig& config,
                                     const MassEnvelope& envelope) {
  const CandidateIndexParams params = CandidateIndexParams::from(config);
  MSP_CHECK_MSG(params.min_length >= 2,
                "candidates must have >= 2 residues (fragmentable)");
  std::vector<IndexedCandidate> entries;
  for (std::uint32_t pi = 0; pi < shard.proteins.size(); ++pi) {
    const Protein& protein = shard.proteins[pi];
    const std::size_t len = protein.residues.size();
    if (len < params.min_length) continue;
    // Same arithmetic as the reference kernel: masses must be bit-identical
    // so indexed and reference searches score the same doubles.
    const FragmentMassIndex index(protein.residues);
    const std::size_t max_k = std::min<std::size_t>(len, params.max_length);

    if (params.mode == CandidateMode::kPrefixSuffix) {
      for (std::size_t k = params.min_length; k <= max_k; ++k) {
        const double mass = index.prefix_mass(k);
        if (!envelope.admits(mass)) continue;
        entries.push_back({mass, pi, 0, static_cast<std::uint32_t>(k),
                           FragmentEnd::kPrefix});
      }
      for (std::size_t k = params.min_length; k <= max_k; ++k) {
        if (k == len) break;  // the full sequence already counted as a prefix
        const double mass = index.suffix_mass(k);
        if (!envelope.admits(mass)) continue;
        entries.push_back({mass, pi, static_cast<std::uint32_t>(len - k),
                           static_cast<std::uint32_t>(k),
                           FragmentEnd::kSuffix});
      }
    } else {
      DigestOptions digest;
      digest.min_length = params.min_length;
      digest.max_length = max_k;
      digest.missed_cleavages = params.missed_cleavages;
      for (const DigestedPeptide& peptide :
           digest_tryptic(protein.residues, digest)) {
        const double mass = index.prefix_mass(peptide.offset + peptide.length) -
                            index.prefix_mass(peptide.offset) + kWaterMass;
        if (!envelope.admits(mass)) continue;
        FragmentEnd end = FragmentEnd::kInternal;
        if (peptide.offset == 0)
          end = FragmentEnd::kPrefix;
        else if (peptide.offset + peptide.length == len)
          end = FragmentEnd::kSuffix;
        entries.push_back({mass, pi,
                           static_cast<std::uint32_t>(peptide.offset),
                           static_cast<std::uint32_t>(peptide.length), end});
      }
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const IndexedCandidate& a, const IndexedCandidate& b) {
              if (a.mass != b.mass) return a.mass < b.mass;
              if (a.protein != b.protein) return a.protein < b.protein;
              if (a.offset != b.offset) return a.offset < b.offset;
              return a.length < b.length;
            });
  return CandidateIndex(params, std::move(entries), envelope);
}

CandidateIndex CandidateIndex::build(const ProteinDatabase& shard,
                                     const SearchConfig& config) {
  return build(shard, config, MassEnvelope{});
}

}  // namespace msp
