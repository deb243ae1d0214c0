#include "core/candidate_index.hpp"

#include <algorithm>

#include "mass/amino_acid.hpp"
#include "mass/digest.hpp"
#include "util/error.hpp"

namespace msp {

namespace {

/// The entry order: (mass, protein, offset, length) ascending. Distinct
/// entries never tie on all four keys, so it is a total order.
bool entry_less(const IndexedCandidate& a, const IndexedCandidate& b) {
  if (a.mass != b.mass) return a.mass < b.mass;
  if (a.protein != b.protein) return a.protein < b.protein;
  if (a.offset != b.offset) return a.offset < b.offset;
  return a.length < b.length;
}

/// Return `entries` in entry_less order without a full comparison sort. A
/// counting scatter copies every entry into one of ~n/2 mass buckets,
/// b(m) = min(B − 1, trunc((m − lo) · B / (hi − lo))), and each bucket is
/// then sorted under entry_less. Rounded subtraction, multiplication by a
/// positive constant, truncation and min are all monotone, so m1 < m2
/// implies b(m1) <= b(m2): an entry in a lower bucket has the strictly
/// smaller mass, equal masses share a bucket, and the concatenated buckets
/// are exactly std::sort(entries, entry_less) (DESIGN.md §5d). The scatter
/// is out of place; an in-place permutation was slower than std::sort at
/// shard scale.
std::vector<IndexedCandidate> sort_entries(
    std::vector<IndexedCandidate> entries) {
  const std::size_t n = entries.size();
  if (n < 2) return entries;
  double lo = entries[0].mass;
  double hi = lo;
  for (const IndexedCandidate& entry : entries) {
    lo = std::min(lo, entry.mass);
    hi = std::max(hi, entry.mass);
  }
  if (hi == lo) {  // one mass: the bucket map would divide by zero
    std::sort(entries.begin(), entries.end(), entry_less);
    return entries;
  }
  const std::size_t buckets = n / 2 + 1;
  const double scale = static_cast<double>(buckets) / (hi - lo);
  const auto bucket_of = [lo, scale, buckets](double mass) {
    return std::min(buckets - 1,
                    static_cast<std::size_t>((mass - lo) * scale));
  };

  // starts[b] first holds bucket b's end; the backward scatter moves it
  // down to the bucket's start. starts[buckets] = n throughout.
  std::vector<std::size_t> starts(buckets + 1, 0);
  for (const IndexedCandidate& entry : entries)
    ++starts[bucket_of(entry.mass)];
  for (std::size_t b = 1; b <= buckets; ++b) starts[b] += starts[b - 1];
  std::vector<IndexedCandidate> sorted(n);
  for (auto it = entries.rbegin(); it != entries.rend(); ++it)
    sorted[--starts[bucket_of(it->mass)]] = *it;
  std::vector<IndexedCandidate>().swap(entries);
  const auto begin = sorted.begin();
  for (std::size_t b = 0; b < buckets; ++b)
    if (starts[b + 1] - starts[b] > 1)
      std::sort(begin + static_cast<std::ptrdiff_t>(starts[b]),
                begin + static_cast<std::ptrdiff_t>(starts[b + 1]),
                entry_less);
  return sorted;
}

}  // namespace

std::vector<ProteinView> protein_views(const ProteinDatabase& db) {
  std::vector<ProteinView> views;
  views.reserve(db.proteins.size());
  for (const Protein& protein : db.proteins)
    views.push_back({protein.id, protein.residues});
  return views;
}

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
  if (params.mode == CandidateMode::kPrefixSuffix) {
    // At most every prefix and suffix: reserved at once, so the array is
    // never copied while it grows (pages the envelope leaves unused are
    // never touched).
    std::size_t bound = 0;
    for (const Protein& protein : shard.proteins) {
      const std::size_t max_k =
          std::min<std::size_t>(protein.residues.size(), params.max_length);
      if (max_k >= params.min_length)
        bound += 2 * (max_k - params.min_length + 1);
    }
    entries.reserve(bound);
  }
  std::vector<double> sums;  // sums[k]: the first k residues' mass
  for (std::uint32_t pi = 0; pi < shard.proteins.size(); ++pi) {
    const Protein& protein = shard.proteins[pi];
    const std::size_t len = protein.residues.size();
    if (len < params.min_length) continue;
    // FragmentMassIndex's sums and mass expressions, so indexed and
    // reference searches score the same doubles.
    residue_prefix_sums(protein.residues, sums);
    const auto prefix_mass = [&sums](std::size_t k) {
      return sums[k] + kWaterMass;
    };
    const std::size_t max_k = std::min<std::size_t>(len, params.max_length);

    if (params.mode == CandidateMode::kPrefixSuffix) {
      for (std::size_t k = params.min_length; k <= max_k; ++k) {
        const double mass = prefix_mass(k);
        if (!envelope.admits(mass)) continue;
        entries.push_back({mass, pi, 0, static_cast<std::uint32_t>(k),
                           FragmentEnd::kPrefix});
      }
      for (std::size_t k = params.min_length; k <= max_k; ++k) {
        if (k == len) break;  // the full sequence already counted as a prefix
        const double mass = sums[len] - sums[len - k] + kWaterMass;
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
        const double mass = prefix_mass(peptide.offset + peptide.length) -
                            prefix_mass(peptide.offset) + kWaterMass;
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
  return CandidateIndex(params, sort_entries(std::move(entries)), envelope);
}

CandidateIndex CandidateIndex::build(const ProteinDatabase& shard,
                                     const SearchConfig& config) {
  return build(shard, config, MassEnvelope{});
}

}  // namespace msp
