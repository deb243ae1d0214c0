#include "core/fragment_index.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "io/wire_record.hpp"
#include "spectra/theoretical.hpp"
#include "util/error.hpp"

namespace msp {

namespace {

// Leads the fragment-ion-index record in a shard pack.
// "MSPARFRG" in ASCII — distinct from the indexed-shard and histogram magics.
constexpr std::uint64_t kFragmentIndexMagic = 0x4D53504152465247ull;
// Version 2: postings are deduplicated per (candidate, bin) — strictly
// ordinal-ascending within a bin — matching the deduplicated shared-peak
// count (one query peak is one piece of evidence). Version-1 records carry
// duplicate postings and are rejected by the shared version check.
constexpr std::uint32_t kFragmentIndexVersion = 2;

}  // namespace

FragmentIndex FragmentIndex::build(const ProteinDatabase& shard,
                                   const CandidateIndex& index,
                                   double bin_width) {
  MSP_CHECK_MSG(bin_width > 0.0 && std::isfinite(bin_width),
                "fragment index bin width must be positive and finite");
  FragmentIndex out;
  out.params_ = FragmentIndexParams{index.params(), bin_width};
  out.candidate_count_ = index.size();
  if (index.empty()) return out;

  // The ladder bins of every entry — one per *distinct* (candidate, bin),
  // the same first-hit-wins dedup the IonLadder applies — candidate-major
  // in one exactly reserved array, with each entry's end offset, so each
  // bin's postings come out strictly ordinal-ascending under the stable
  // counting scatter below. Binning through build_peptide_ladder (the exact
  // ladder the kernels score) keeps index votes and the deduplicated
  // shared_peak_count in lockstep, integer-for-integer.
  const std::vector<IndexedCandidate>& entries = index.entries();
  std::size_t ion_bound = 0;
  for (const IndexedCandidate& entry : entries)
    ion_bound += 2 * (static_cast<std::size_t>(entry.length) - 1);
  std::vector<std::uint32_t> bins;
  bins.reserve(ion_bound);
  std::vector<std::uint64_t> ends(entries.size());
  FragmentIonWorkspace workspace;
  std::uint32_t max_bin = 0;
  for (std::size_t e = 0; e < entries.size(); ++e) {
    const IndexedCandidate& entry = entries[e];
    const Protein& protein = shard.proteins[entry.protein];
    const std::string_view peptide =
        std::string_view(protein.residues).substr(entry.offset, entry.length);
    const IonLadder& ladder = build_peptide_ladder(peptide, bin_width,
                                                   workspace);
    for (std::size_t i = 0; i < ladder.size; ++i) {
      const auto bin = static_cast<std::uint32_t>(ladder.bins[i]);
      max_bin = std::max(max_bin, bin);
      bins.push_back(bin);
    }
    ends[e] = bins.size();
  }

  out.starts_.assign(static_cast<std::size_t>(max_bin) + 2, 0);
  for (const std::uint32_t bin : bins) ++out.starts_[bin + 1];
  for (std::size_t b = 1; b < out.starts_.size(); ++b)
    out.starts_[b] += out.starts_[b - 1];
  out.postings_.resize(bins.size());
  std::vector<std::uint64_t> cursor(out.starts_.begin(),
                                    out.starts_.end() - 1);
  std::size_t i = 0;
  for (std::size_t e = 0; e < entries.size(); ++e)
    for (; i < ends[e]; ++i)
      out.postings_[cursor[bins[i]]++] = static_cast<std::uint32_t>(e);
  return out;
}

void put_fragment_index(wire::Writer& writer, const FragmentIndex& index) {
  wire::put_record_header(writer, kFragmentIndexMagic, kFragmentIndexVersion);
  const CandidateIndexParams& params = index.params().index_params;
  writer.put_u8(static_cast<std::uint8_t>(params.mode));
  writer.put_u32(params.min_length);
  writer.put_u32(params.max_length);
  writer.put_u32(params.missed_cleavages);
  writer.put_double(index.params().bin_width);
  writer.put_u64(index.candidate_count());
  const std::uint32_t bins = index.bin_count();
  writer.put_u64(bins);
  writer.put_u64(index.posting_count());
  writer.reserve((static_cast<std::size_t>(bins) + index.posting_count()) *
                 sizeof(std::uint32_t));
  for (std::uint32_t b = 0; b < bins; ++b)
    writer.put_u32(static_cast<std::uint32_t>(index.postings(b).size()));
  for (std::uint32_t b = 0; b < bins; ++b)
    for (const std::uint32_t ordinal : index.postings(b))
      writer.put_u32(ordinal);
}

bool peek_fragment_index(wire::Reader& reader) {
  return wire::peek_record(reader, kFragmentIndexMagic);
}

FragmentIndex get_fragment_index(wire::Reader& reader) {
  wire::get_record_header(reader, kFragmentIndexMagic, kFragmentIndexVersion,
                          "fragment index");
  FragmentIndexParams params;
  params.index_params.mode = static_cast<CandidateMode>(reader.get_u8());
  params.index_params.min_length = reader.get_u32();
  params.index_params.max_length = reader.get_u32();
  params.index_params.missed_cleavages = reader.get_u32();
  params.bin_width = reader.get_double();
  if (!(params.bin_width > 0.0) || !std::isfinite(params.bin_width))
    throw IoError("fragment index: bin width must be positive and finite");
  const std::uint64_t candidates = reader.get_u64();
  const std::uint64_t bins = reader.get_u64();
  const std::uint64_t posting_count = reader.get_u64();
  // Size fields are untrusted: bound them by the bytes actually present
  // before allocating anything proportional to them.
  if (bins > reader.remaining() / sizeof(std::uint32_t))
    throw IoError("fragment index: bin count exceeds payload");
  if (posting_count > reader.remaining() / sizeof(std::uint32_t))
    throw IoError("fragment index: posting count exceeds payload");

  std::vector<std::uint64_t> starts;
  std::vector<std::uint32_t> postings;
  if (bins > 0) {
    starts.reserve(bins + 1);
    starts.push_back(0);
    for (std::uint64_t b = 0; b < bins; ++b)
      starts.push_back(starts.back() + reader.get_u32());
    if (starts.back() != posting_count)
      throw IoError("fragment index: per-bin counts sum to " +
                    std::to_string(starts.back()) + ", expected " +
                    std::to_string(posting_count));
  } else if (posting_count != 0) {
    throw IoError("fragment index: postings without bins");
  }
  postings.reserve(posting_count);
  for (std::uint64_t i = 0; i < posting_count; ++i) {
    const std::uint32_t ordinal = reader.get_u32();
    if (ordinal >= candidates)
      throw IoError("fragment index: posting ordinal " +
                    std::to_string(ordinal) + " outside candidate range of " +
                    std::to_string(candidates));
    postings.push_back(ordinal);
  }
  for (std::uint64_t b = 0; b < bins; ++b)
    for (std::uint64_t i = starts[b] + 1; i < starts[b + 1]; ++i)
      if (postings[i - 1] >= postings[i])
        throw IoError("fragment index: postings must be strictly "
                      "ordinal-ascending within a bin (a duplicate posting "
                      "is a duplicate-bin double vote)");
  FragmentIndex out;
  out.params_ = params;
  out.candidate_count_ = candidates;
  out.starts_ = std::move(starts);
  out.postings_ = std::move(postings);
  return out;
}

}  // namespace msp
