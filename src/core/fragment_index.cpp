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

/// Every entry's ladder bins — one per *distinct* (candidate, bin), the
/// same first-hit-wins dedup the IonLadder applies — candidate-major in one
/// exactly reserved array, with each entry's end offset and the CSR row
/// starts the bins scatter to. Binning through build_peptide_ladder (the
/// exact ladder the kernels score) keeps index votes and the deduplicated
/// shared_peak_count in lockstep, integer-for-integer.
struct LadderBins {
  std::vector<std::uint32_t> bins;
  std::vector<std::uint64_t> ends;
  std::vector<std::uint64_t> starts;  ///< max bin + 2; empty without entries
};

LadderBins ladder_bins(std::span<const ProteinView> proteins,
                       std::span<const IndexedCandidate> entries,
                       double bin_width) {
  MSP_CHECK_MSG(bin_width > 0.0 && std::isfinite(bin_width),
                "fragment index bin width must be positive and finite");
  LadderBins out;
  if (entries.empty()) return out;
  std::size_t ion_bound = 0;
  for (const IndexedCandidate& entry : entries)
    ion_bound += 2 * (static_cast<std::size_t>(entry.length) - 1);
  out.bins.reserve(ion_bound);
  out.ends.resize(entries.size());
  FragmentIonWorkspace workspace;
  std::uint32_t max_bin = 0;
  for (std::size_t e = 0; e < entries.size(); ++e) {
    const IndexedCandidate& entry = entries[e];
    const std::string_view peptide =
        proteins[entry.protein].residues.substr(entry.offset, entry.length);
    const IonLadder& ladder = build_peptide_ladder(peptide, bin_width,
                                                   workspace);
    for (std::size_t i = 0; i < ladder.size; ++i) {
      const auto bin = static_cast<std::uint32_t>(ladder.bins[i]);
      max_bin = std::max(max_bin, bin);
      out.bins.push_back(bin);
    }
    out.ends[e] = out.bins.size();
  }
  out.starts.assign(static_cast<std::size_t>(max_bin) + 2, 0);
  for (const std::uint32_t bin : out.bins) ++out.starts[bin + 1];
  for (std::size_t b = 1; b < out.starts.size(); ++b)
    out.starts[b] += out.starts[b - 1];
  return out;
}

/// The record up to its postings: header, parameters, candidate count, bin
/// and posting counts, then one u32 count per bin.
void put_fragment_head(wire::Writer& writer, const FragmentIndexParams& params,
                       std::uint64_t candidates,
                       std::span<const std::uint64_t> starts) {
  wire::put_record_header(writer, kFragmentIndexMagic, kFragmentIndexVersion);
  writer.put_u8(static_cast<std::uint8_t>(params.index_params.mode));
  writer.put_u32(params.index_params.min_length);
  writer.put_u32(params.index_params.max_length);
  writer.put_u32(params.index_params.missed_cleavages);
  writer.put_double(params.bin_width);
  writer.put_u64(candidates);
  const std::size_t bins = starts.empty() ? 0 : starts.size() - 1;
  const std::uint64_t postings = starts.empty() ? 0 : starts.back();
  writer.put_u64(bins);
  writer.put_u64(postings);
  std::vector<std::uint32_t> counts(bins);
  for (std::size_t b = 0; b < bins; ++b)
    counts[b] = static_cast<std::uint32_t>(starts[b + 1] - starts[b]);
  writer.reserve((bins + postings) * sizeof(std::uint32_t));
  writer.put_array(std::span<const std::uint32_t>(counts));
}

}  // namespace

bool operator==(const FragmentView& a, const FragmentView& b) {
  if (!(a.params == b.params) || a.candidate_count != b.candidate_count ||
      a.starts != b.starts || a.ordinals.size() != b.ordinals.size())
    return false;
  for (std::size_t i = 0; i < a.ordinals.size(); ++i)
    if (a.ordinals[i] != b.ordinals[i]) return false;
  return true;
}

FragmentIndex FragmentIndex::build(const ProteinDatabase& shard,
                                   const CandidateIndex& index,
                                   double bin_width) {
  return build(protein_views(shard), index.entries(), index.params(),
               bin_width);
}

FragmentIndex FragmentIndex::build(std::span<const ProteinView> proteins,
                                   std::span<const IndexedCandidate> entries,
                                   const CandidateIndexParams& params,
                                   double bin_width) {
  wire::Writer writer;
  put_fragment_index(writer, proteins, entries, params, bin_width);
  FragmentIndex out;
  out.bytes_ = writer.take();
  wire::Reader reader(out.bytes_.data(), out.bytes_.size());
  out.view_ = get_fragment_view(reader);
  return out;
}

// A vector's move hands its buffer over, so the view moves with the bytes
// it reads, and the source is left empty.
FragmentIndex::FragmentIndex(FragmentIndex&& other) noexcept
    : bytes_(std::exchange(other.bytes_, {})),
      view_(std::exchange(other.view_, {})) {}

FragmentIndex& FragmentIndex::operator=(FragmentIndex&& other) noexcept {
  bytes_ = std::exchange(other.bytes_, {});
  view_ = std::exchange(other.view_, {});
  return *this;
}

std::uint64_t put_fragment_index(wire::Writer& writer,
                                 std::span<const ProteinView> proteins,
                                 std::span<const IndexedCandidate> entries,
                                 const CandidateIndexParams& params,
                                 double bin_width) {
  const LadderBins csr = ladder_bins(proteins, entries, bin_width);
  put_fragment_head(writer, FragmentIndexParams{params, bin_width},
                    entries.size(), csr.starts);
  // The stable counting scatter, entries in index order, so each bin's
  // postings come out strictly ordinal-ascending.
  const std::size_t first =
      writer.put_zeros(csr.bins.size() * sizeof(std::uint32_t));
  char* const postings = writer.data() + first;
  if (!csr.starts.empty()) {
    std::vector<std::uint64_t> cursor(csr.starts.begin(),
                                      csr.starts.end() - 1);
    std::size_t i = 0;
    for (std::size_t e = 0; e < csr.ends.size(); ++e)
      for (; i < csr.ends[e]; ++i)
        wire::store(postings + cursor[csr.bins[i]]++ * sizeof(std::uint32_t),
                    static_cast<std::uint32_t>(e));
  }
  return csr.bins.size();
}

bool peek_fragment_index(wire::Reader& reader) {
  return wire::peek_record(reader, kFragmentIndexMagic);
}

FragmentView get_fragment_view(wire::Reader& reader) {
  wire::get_record_header(reader, kFragmentIndexMagic, kFragmentIndexVersion,
                          "fragment index");
  FragmentView view;
  FragmentIndexParams& params = view.params;
  params.index_params.mode = static_cast<CandidateMode>(reader.get_u8());
  params.index_params.min_length = reader.get_u32();
  params.index_params.max_length = reader.get_u32();
  params.index_params.missed_cleavages = reader.get_u32();
  params.bin_width = reader.get_double();
  if (!(params.bin_width > 0.0) || !std::isfinite(params.bin_width))
    throw IoError("fragment index: bin width must be positive and finite");
  const std::uint64_t candidates = reader.get_u64();
  view.candidate_count = candidates;
  const std::uint64_t bins = reader.get_u64();
  const std::uint64_t posting_count = reader.get_u64();
  // Size fields are untrusted: bound them by the bytes actually present
  // before allocating anything proportional to them.
  if (bins > reader.remaining() / sizeof(std::uint32_t))
    throw IoError("fragment index: bin count exceeds payload");
  if (posting_count > reader.remaining() / sizeof(std::uint32_t))
    throw IoError("fragment index: posting count exceeds payload");

  std::vector<std::uint64_t>& starts = view.starts;
  if (bins > 0) {
    const wire::UnalignedSpan<std::uint32_t> counts =
        wire::unaligned_view<std::uint32_t>(
            reader.get_bytes(bins * sizeof(std::uint32_t)),
            "fragment index counts");
    starts.resize(bins + 1);
    for (std::uint64_t b = 0; b < bins; ++b)
      starts[b + 1] = starts[b] + counts[b];
    if (starts.back() != posting_count)
      throw IoError("fragment index: per-bin counts sum to " +
                    std::to_string(starts.back()) + ", expected " +
                    std::to_string(posting_count));
  } else if (posting_count != 0) {
    throw IoError("fragment index: postings without bins");
  }
  const wire::UnalignedSpan<std::uint32_t> ordinals =
      wire::unaligned_view<std::uint32_t>(
          reader.get_bytes(posting_count * sizeof(std::uint32_t)),
          "fragment index postings");
  // Each bin's postings strictly ascending, so its last one is its
  // largest and bounds all of them by the candidate count. The ascent
  // test accumulates without branching (one pass, vectorizable).
  for (std::uint64_t b = 0; b < bins; ++b) {
    if (starts[b] == starts[b + 1]) continue;
    unsigned descents = 0;
    for (std::uint64_t i = starts[b] + 1; i < starts[b + 1]; ++i)
      descents |= static_cast<unsigned>(ordinals[i - 1] >= ordinals[i]);
    if (descents != 0)
      throw IoError("fragment index: postings must be strictly "
                    "ordinal-ascending within a bin (a duplicate posting "
                    "is a duplicate-bin double vote)");
    const std::uint32_t largest = ordinals[starts[b + 1] - 1];
    if (largest >= candidates)
      throw IoError("fragment index: posting ordinal " +
                    std::to_string(largest) + " outside candidate range of " +
                    std::to_string(candidates));
  }
  view.ordinals = ordinals;
  return view;
}

}  // namespace msp
