#include "core/packdb.hpp"

#include <cmath>
#include <string>

#include "core/wire.hpp"
#include "io/wire_record.hpp"

namespace msp {

namespace {

// Leads an indexed-shard image. A legacy image starts with the protein
// count; a count this large would need ~5 exabytes of ids alone, so the two
// formats cannot collide in practice.
// "MSPARIDX" in ASCII.
constexpr std::uint64_t kIndexedShardMagic = 0x4D53504152494458ull;
// Version 2: the index record carries the MassEnvelope it was clipped for
// (hypothesis range, then windows) ahead of its entries, so a fetched shard
// is self-describing. Version-1 images had no version field at all.
constexpr std::uint32_t kIndexedShardVersion = 2;

// The smallest protein record: two empty strings' u32 lengths.
constexpr std::size_t kMinProteinBytes = 2 * sizeof(std::uint32_t);
// One index entry on the wire: mass, protein, offset, length, end.
constexpr std::size_t kIndexEntryBytes =
    sizeof(double) + 3 * sizeof(std::uint32_t) + 1;

void put_proteins(wire::Writer& writer, const ProteinDatabase& db) {
  writer.put_u64(db.proteins.size());
  for (const Protein& protein : db.proteins) {
    writer.put_string(protein.id);
    writer.put_string(protein.residues);
  }
}

ProteinDatabase get_proteins(wire::Reader& reader) {
  ProteinDatabase db;
  const std::uint64_t count = reader.get_u64();
  if (count > reader.remaining() / kMinProteinBytes)
    throw IoError("packed database: protein count exceeds payload");
  db.proteins.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Protein protein;
    protein.id = reader.get_string();
    protein.residues = reader.get_string();
    db.proteins.push_back(std::move(protein));
  }
  return db;
}

// Index entries go onto the wire field-by-field (never as raw structs:
// padding bytes would make byte-identical traces depend on stack garbage).
void put_index(wire::Writer& writer, const CandidateIndex& index) {
  const CandidateIndexParams& params = index.params();
  writer.put_u8(static_cast<std::uint8_t>(params.mode));
  writer.put_u32(params.min_length);
  writer.put_u32(params.max_length);
  writer.put_u32(params.missed_cleavages);
  const MassEnvelope& envelope = index.envelope();
  writer.put_double(envelope.lo);
  writer.put_double(envelope.hi);
  writer.put_double(envelope.below);
  writer.put_double(envelope.above);
  writer.put_u64(index.size());
  writer.reserve(index.size() * kIndexEntryBytes);
  for (const IndexedCandidate& entry : index.entries()) {
    writer.put_double(entry.mass);
    writer.put_u32(entry.protein);
    writer.put_u32(entry.offset);
    writer.put_u32(entry.length);
    writer.put_u8(static_cast<std::uint8_t>(entry.end));
  }
}

[[noreturn]] void reject_entry(std::uint64_t i, const std::string& problem) {
  throw IoError("packed index: entry " + std::to_string(i) + ": " + problem);
}

// The decoder trusts nothing: the kernel dereferences every entry's protein
// ordinal and residue range, and merge-joins the masses assuming they are
// finite, ascending and inside the envelope the shard was clipped for.
CandidateIndex get_index(wire::Reader& reader, const ProteinDatabase& db) {
  CandidateIndexParams params;
  const std::uint8_t mode = reader.get_u8();
  if (mode > static_cast<std::uint8_t>(CandidateMode::kTryptic))
    throw IoError("packed index: candidate mode " + std::to_string(mode) +
                  " unknown");
  params.mode = static_cast<CandidateMode>(mode);
  params.min_length = reader.get_u32();
  params.max_length = reader.get_u32();
  params.missed_cleavages = reader.get_u32();
  MassEnvelope envelope;
  envelope.lo = reader.get_double();
  envelope.hi = reader.get_double();
  envelope.below = reader.get_double();
  envelope.above = reader.get_double();
  if (std::isnan(envelope.lo) || std::isnan(envelope.hi))
    throw IoError("packed index: envelope range is NaN");
  if (!(envelope.below >= 0.0) || !(envelope.above >= 0.0))
    throw IoError("packed index: envelope windows must be non-negative");
  const std::uint64_t count = reader.get_u64();
  if (count > reader.remaining() / kIndexEntryBytes)
    throw IoError("packed index: entry count exceeds payload");
  std::vector<IndexedCandidate> entries;
  entries.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    IndexedCandidate entry;
    entry.mass = reader.get_double();
    entry.protein = reader.get_u32();
    entry.offset = reader.get_u32();
    entry.length = reader.get_u32();
    const std::uint8_t end = reader.get_u8();
    if (!std::isfinite(entry.mass)) reject_entry(i, "mass is not finite");
    if (!envelope.admits(entry.mass))
      reject_entry(i, "mass " + std::to_string(entry.mass) +
                          " outside the recorded envelope");
    if (!entries.empty() && entry.mass < entries.back().mass)
      reject_entry(i, "masses out of order");
    if (entry.protein >= db.proteins.size())
      reject_entry(i, "protein ordinal " + std::to_string(entry.protein) +
                          " at or past the protein count " +
                          std::to_string(db.proteins.size()));
    if (std::uint64_t{entry.offset} + entry.length >
        db.proteins[entry.protein].residues.size())
      reject_entry(i, "offset + length past the protein's residues");
    if (end > static_cast<std::uint8_t>(FragmentEnd::kInternal))
      reject_entry(i, "end " + std::to_string(end) + " unknown");
    entry.end = static_cast<FragmentEnd>(end);
    entries.push_back(entry);
  }
  return CandidateIndex(params, std::move(entries), envelope);
}

// Every indexed image: the versioned lead-in, the proteins, the index, then
// the optional histogram and fragment-index trailers in that order.
std::vector<char> pack_indexed(const ProteinDatabase& db,
                               const CandidateIndex& index,
                               const MassHistogram* histogram,
                               const FragmentIndex* fragment) {
  wire::Writer writer;
  wire::put_record_header(writer, kIndexedShardMagic, kIndexedShardVersion);
  put_proteins(writer, db);
  put_index(writer, index);
  if (histogram != nullptr) put_histogram(writer, *histogram);
  if (fragment != nullptr) put_fragment_index(writer, *fragment);
  return writer.take();
}

}  // namespace

std::vector<char> pack_database(const ProteinDatabase& db) {
  wire::Writer writer;
  put_proteins(writer, db);
  return writer.take();
}

std::vector<char> pack_database(const ProteinDatabase& db,
                                const CandidateIndex& index) {
  return pack_indexed(db, index, nullptr, nullptr);
}

std::vector<char> pack_database(const ProteinDatabase& db,
                                const CandidateIndex& index,
                                const FragmentIndex& fragment) {
  return pack_indexed(db, index, nullptr, &fragment);
}

std::vector<char> pack_database(const ProteinDatabase& db,
                                const CandidateIndex& index,
                                const MassHistogram& histogram) {
  return pack_indexed(db, index, &histogram, nullptr);
}

std::vector<char> pack_database(const ProteinDatabase& db,
                                const CandidateIndex& index,
                                const MassHistogram& histogram,
                                const FragmentIndex& fragment) {
  return pack_indexed(db, index, &histogram, &fragment);
}

PackedShard unpack_shard(std::span<const char> bytes) {
  wire::Reader reader(bytes.data(), bytes.size());
  PackedShard shard;
  if (wire::peek_record(reader, kIndexedShardMagic)) {
    wire::get_record_header(reader, kIndexedShardMagic, kIndexedShardVersion,
                            "packed index");
    shard.db = get_proteins(reader);
    shard.index = get_index(reader, shard.db);
    shard.has_index = true;
    // Optional trailers, each magic-discriminated: the shard's mass
    // histogram, then its fragment-ion index. Absent in legacy images
    // (routing then treats the shard as unknown — visit always — and open
    // search falls back to exhaustive enumeration).
    if (peek_histogram(reader)) {
      shard.histogram = get_histogram(reader);
      shard.has_histogram = true;
    }
    if (peek_fragment_index(reader)) {
      shard.fragment = get_fragment_index(reader);
      shard.has_fragment = true;
      if (shard.fragment.params().index_params != shard.index.params() ||
          shard.fragment.candidate_count() != shard.index.size())
        throw IoError("fragment index does not cover the shipped candidate "
                      "index");
    }
  } else {
    shard.db = get_proteins(reader);
  }
  if (!reader.exhausted())
    throw IoError("packed database has trailing bytes");
  return shard;
}

PackedShard unpack_shard(const std::vector<char>& bytes) {
  return unpack_shard(std::span<const char>(bytes.data(), bytes.size()));
}

ProteinDatabase unpack_database(std::span<const char> bytes) {
  return unpack_shard(bytes).db;
}

ProteinDatabase unpack_database(const std::vector<char>& bytes) {
  return unpack_database(std::span<const char>(bytes.data(), bytes.size()));
}

std::vector<char> pack_spectra(std::span<const Spectrum> spectra) {
  wire::Writer writer;
  writer.put_u64(spectra.size());
  for (const Spectrum& spectrum : spectra) {
    writer.put_string(spectrum.title());
    writer.put_double(spectrum.precursor_mz());
    writer.put_i32(spectrum.charge());
    writer.put_u32(static_cast<std::uint32_t>(spectrum.peaks().size()));
    for (const Peak& peak : spectrum.peaks()) {
      writer.put_double(peak.mz);
      writer.put_double(peak.intensity);
    }
  }
  return writer.take();
}

std::vector<Spectrum> unpack_spectra(const std::vector<char>& bytes) {
  wire::Reader reader(bytes);
  std::vector<Spectrum> spectra;
  const std::uint64_t count = reader.get_u64();
  // Every spectrum record is at least 24 bytes (empty title, zero peaks);
  // bound the reserve by what the payload can actually hold.
  if (count > reader.remaining() / 24)
    throw IoError("packed spectra: spectrum count exceeds payload");
  spectra.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string title = reader.get_string();
    const double precursor = reader.get_double();
    const int charge = reader.get_i32();
    const std::uint32_t peak_count = reader.get_u32();
    // The Spectrum constructor treats nonpositive/NaN peaks as filterable
    // instrument noise, but a pack is machine-written: out-of-domain values
    // here are corruption, and some (an infinite or absurd m/z with positive
    // intensity) would survive the noise filter only to drive the binned
    // grid allocation — floor(max_mz / bin_width) bins — out of memory.
    // Reject at load with the IoError corruption path instead.
    if (!std::isfinite(precursor) || precursor <= 0.0)
      throw IoError("packed spectra: precursor m/z must be positive and "
                    "finite");
    if (charge < 1)
      throw IoError("packed spectra: charge must be >= 1");
    if (peak_count > reader.remaining() / (2 * sizeof(double)))
      throw IoError("packed spectra: peak count exceeds payload");
    std::vector<Peak> peaks;
    peaks.reserve(peak_count);
    for (std::uint32_t k = 0; k < peak_count; ++k) {
      Peak peak;
      peak.mz = reader.get_double();
      peak.intensity = reader.get_double();
      if (!std::isfinite(peak.mz) || peak.mz <= 0.0 ||
          peak.mz > kMaxPackedPeakMz)
        throw IoError("packed spectra: peak m/z outside (0, " +
                      std::to_string(kMaxPackedPeakMz) + "]");
      if (!std::isfinite(peak.intensity) || peak.intensity < 0.0)
        throw IoError("packed spectra: peak intensity must be finite and "
                      "non-negative");
      peaks.push_back(peak);
    }
    spectra.emplace_back(std::move(peaks), precursor, charge, std::move(title));
  }
  if (!reader.exhausted()) throw IoError("packed spectra have trailing bytes");
  return spectra;
}

}  // namespace msp
