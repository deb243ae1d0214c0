#include "core/packdb.hpp"

#include <cmath>
#include <string>

#include "core/fragment_index.hpp"
#include "io/wire_record.hpp"

namespace msp {

namespace {

// Leads a shard image. A plain protein list starts with the protein count;
// a count this large would need ~5 exabytes of ids alone, so each decoder
// tells the other format apart by this magic.
// "MSPARIDX" in ASCII.
constexpr std::uint64_t kIndexedShardMagic = 0x4D53504152494458ull;
// Version 2: the index record carries the MassEnvelope it was clipped for
// (hypothesis range, then windows) ahead of its entries, so a fetched shard
// is self-describing. Version-1 images had no version field at all.
constexpr std::uint32_t kIndexedShardVersion = 2;

// The smallest protein record: two empty strings' u32 lengths.
constexpr std::size_t kMinProteinBytes = 2 * sizeof(std::uint32_t);
// One index entry on the wire: mass, protein, offset, length, end — the
// packed IndexedCandidate, byte for byte.
constexpr std::size_t kIndexEntryBytes =
    sizeof(double) + 3 * sizeof(std::uint32_t) + 1;
static_assert(sizeof(IndexedCandidate) == kIndexEntryBytes);

void put_proteins(wire::Writer& writer, const ProteinDatabase& db) {
  writer.put_u64(db.proteins.size());
  for (const Protein& protein : db.proteins) {
    writer.put_string(protein.id);
    writer.put_string(protein.residues);
  }
}

std::vector<ProteinView> get_proteins(wire::Reader& reader) {
  const std::uint64_t count = reader.get_u64();
  if (count > reader.remaining() / kMinProteinBytes)
    throw IoError("packed database: protein count exceeds payload");
  std::vector<ProteinView> proteins(count);
  for (ProteinView& protein : proteins) {
    protein.id = reader.get_string_view();
    protein.residues = reader.get_string_view();
  }
  return proteins;
}

// The entries go onto the wire as one block: IndexedCandidate is packed, so
// its bytes are the field-by-field encoding with no padding in between.
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
  writer.put_array(std::span<const IndexedCandidate>(index.entries()));
}

[[noreturn]] void reject_entry(std::uint64_t i, const std::string& problem) {
  throw IoError("packed index: entry " + std::to_string(i) + ": " + problem);
}

// The validator trusts nothing: the kernel dereferences every entry's
// protein ordinal and residue range, fragments every entry (two residues
// at least, inside the recorded length range), and merge-joins the masses
// assuming they are finite, ascending and inside the envelope the shard was
// clipped for. The entries are checked where they sit and `shard` views
// them there.
void get_index(wire::Reader& reader, ShardView& shard) {
  CandidateIndexParams& params = shard.params;
  const std::uint8_t mode = reader.get_u8();
  if (mode > static_cast<std::uint8_t>(CandidateMode::kTryptic))
    throw IoError("packed index: candidate mode " + std::to_string(mode) +
                  " unknown");
  params.mode = static_cast<CandidateMode>(mode);
  params.min_length = reader.get_u32();
  params.max_length = reader.get_u32();
  params.missed_cleavages = reader.get_u32();
  // The kernel fragments every entry: a peptide needs two residues.
  if (params.min_length < 2)
    throw IoError("packed index: minimum length " +
                  std::to_string(params.min_length) + " is below 2");
  MassEnvelope& envelope = shard.envelope;
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
  const std::vector<ProteinView>& proteins = shard.proteins;
  double previous = 0.0;
  shard.entries = wire::checked_array_view<IndexedCandidate>(
      reader.get_bytes(count * kIndexEntryBytes), "packed index",
      [&](const IndexedCandidate& entry, std::size_t i) {
        const double mass = entry.mass;
        if (!std::isfinite(mass)) reject_entry(i, "mass is not finite");
        if (!envelope.admits(mass))
          reject_entry(i, "mass " + std::to_string(mass) +
                              " outside the recorded envelope");
        if (i > 0 && mass < previous) reject_entry(i, "masses out of order");
        previous = mass;
        if (entry.protein >= proteins.size())
          reject_entry(i, "protein ordinal " + std::to_string(entry.protein) +
                              " at or past the protein count " +
                              std::to_string(proteins.size()));
        if (std::uint64_t{entry.offset} + entry.length >
            proteins[entry.protein].residues.size())
          reject_entry(i, "offset + length past the protein's residues");
        if (entry.length < params.min_length ||
            entry.length > params.max_length)
          reject_entry(i, "length " + std::to_string(entry.length) +
                              " outside [" +
                              std::to_string(params.min_length) + ", " +
                              std::to_string(params.max_length) + "]");
        const auto end = static_cast<std::uint8_t>(entry.end);
        if (end > static_cast<std::uint8_t>(FragmentEnd::kInternal))
          reject_entry(i, "end " + std::to_string(end) + " unknown");
      });
}

void put_shard_head(wire::Writer& writer, const ProteinDatabase& db,
                    const CandidateIndex& index) {
  // Reserve the bytes up to the trailer at once: an image runs to
  // megabytes, and growing it by doubling would copy and fault in every
  // intermediate buffer.
  std::size_t head = sizeof(kIndexedShardMagic) +
                     sizeof(kIndexedShardVersion) + sizeof(std::uint64_t);
  for (const Protein& protein : db.proteins)
    head += kMinProteinBytes + protein.id.size() + protein.residues.size();
  head += 1 + 3 * sizeof(std::uint32_t) + 4 * sizeof(double) +
          sizeof(std::uint64_t) + index.size() * kIndexEntryBytes;
  writer.reserve(head);
  wire::put_record_header(writer, kIndexedShardMagic, kIndexedShardVersion);
  put_proteins(writer, db);
  put_index(writer, index);
}

}  // namespace

std::vector<char> pack_database(const ProteinDatabase& db) {
  wire::Writer writer;
  put_proteins(writer, db);
  return writer.take();
}

ProteinDatabase unpack_database(std::span<const char> bytes) {
  wire::Reader reader(bytes.data(), bytes.size());
  if (wire::peek_record(reader, kIndexedShardMagic))
    throw IoError("packed database: a shard image, not a protein list");
  ProteinDatabase db;
  const std::vector<ProteinView> proteins = get_proteins(reader);
  if (!reader.exhausted())
    throw IoError("packed database has trailing bytes");
  db.proteins.reserve(proteins.size());
  for (const ProteinView& protein : proteins)
    db.proteins.push_back(
        Protein{std::string(protein.id), std::string(protein.residues)});
  return db;
}

std::vector<char> pack_shard(const ProteinDatabase& db,
                             const CandidateIndex& index) {
  wire::Writer writer;
  put_shard_head(writer, db, index);
  return writer.take();
}

ShardImage pack_shard(const ProteinDatabase& db, const CandidateIndex& index,
                      double bin_width) {
  wire::Writer writer;
  put_shard_head(writer, db, index);
  const std::uint64_t postings = put_fragment_index(
      writer, protein_views(db), index.entries(), index.params(), bin_width);
  return ShardImage{writer.take(), postings};
}

ShardView unpack_shard(std::span<const char> image) {
  wire::Reader reader(image.data(), image.size());
  wire::get_record_header(reader, kIndexedShardMagic, kIndexedShardVersion,
                          "packed index");
  ShardView shard;
  shard.proteins = get_proteins(reader);
  get_index(reader, shard);
  // The one optional trailer: the fragment-ion index, shipped only when
  // open search uses one.
  if (peek_fragment_index(reader)) {
    shard.fragment = get_fragment_view(reader);
    if (shard.fragment->params.index_params != shard.params ||
        shard.fragment->candidate_count != shard.entries.size())
      throw IoError("fragment index does not cover the shipped candidate "
                    "index");
  }
  if (!reader.exhausted())
    throw IoError("packed shard has trailing bytes");
  return shard;
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

std::vector<char> pack_hits(const QueryHits& per_query) {
  wire::Writer writer;
  writer.put_u64(per_query.size());
  for (const std::vector<Hit>& hits : per_query) {
    writer.put_u32(static_cast<std::uint32_t>(hits.size()));
    for (const Hit& hit : hits) {
      writer.put_double(hit.score);
      writer.put_string(hit.protein_id);
      writer.put_u32(hit.offset);
      writer.put_u32(hit.length);
      writer.put_u32(static_cast<std::uint32_t>(hit.end));
      writer.put_double(hit.mass);
      writer.put_string(hit.peptide);
    }
  }
  return writer.take();
}

QueryHits unpack_hits(const std::vector<char>& bytes) {
  // The smallest hit: score, mass, two empty strings' u32 lengths, and the
  // offset, length and end u32s.
  constexpr std::size_t kMinHitBytes =
      2 * sizeof(double) + 5 * sizeof(std::uint32_t);
  wire::Reader reader(bytes);
  const std::uint64_t lists = reader.get_u64();
  if (lists > reader.remaining() / sizeof(std::uint32_t))
    throw IoError("packed hits: list count exceeds payload");
  QueryHits per_query(lists);
  for (std::vector<Hit>& hits : per_query) {
    const std::uint32_t count = reader.get_u32();
    if (count > reader.remaining() / kMinHitBytes)
      throw IoError("packed hits: hit count exceeds payload");
    hits.resize(count);
    for (Hit& hit : hits) {
      hit.score = reader.get_double();
      hit.protein_id = reader.get_string();
      hit.offset = reader.get_u32();
      hit.length = reader.get_u32();
      const std::uint32_t end = reader.get_u32();
      if (end > static_cast<std::uint32_t>(FragmentEnd::kInternal))
        throw IoError("packed hit has invalid fragment-end marker");
      hit.end = static_cast<FragmentEnd>(end);
      hit.mass = reader.get_double();
      hit.peptide = reader.get_string();
    }
  }
  if (!reader.exhausted()) throw IoError("packed hits have trailing bytes");
  return per_query;
}

}  // namespace msp
