// Packed payloads: the byte images the parallel drivers move between ranks.
//
// The paper transports raw database fragments ("database transport model");
// we serialize a shard's proteins (and its indexes) into one contiguous
// buffer so an RMA get of the shard is a single modeled transfer, exactly
// like the C original.
#pragma once

#include <span>
#include <vector>

#include "core/candidate_index.hpp"
#include "core/fragment_index.hpp"
#include "core/hit.hpp"
#include "mass/peptide.hpp"
#include "spectra/spectrum.hpp"

namespace msp {

/// A shard's search indexes: the candidate index always, the fragment-ion
/// index only when open search uses one (candidate source not forced to
/// the mass window).
struct ShardIndexes {
  CandidateIndex index;
  FragmentIndex fragment{};
  bool has_fragment = false;
};

/// Serialize a plain protein list: the payload Algorithm B's counting sort
/// exchanges (sortmz.cpp).
std::vector<char> pack_database(const ProteinDatabase& db);

/// Inverse of pack_database. Throws IoError on malformed bytes, and on a
/// shard image (pack_shard's format is not a protein list).
ProteinDatabase unpack_database(std::span<const char> bytes);

/// Serialize a shard with its indexes — the image the rings expose and
/// fetch: a versioned MSPARIDX lead-in, the proteins, the candidate index
/// (with the envelope it was clipped for) and, only when
/// `indexes.has_fragment`, the MSPARFRG fragment-index trailer. The indexes
/// are built once at pack time and ride with the shard bytes, so every rank
/// a rotation delivers the shard to reuses one enumeration. The image
/// carries exactly what its receiver scores: routing state travels once,
/// in ShardMassMap::exchange, never per fetch.
std::vector<char> pack_shard(const ProteinDatabase& db,
                             const ShardIndexes& indexes);

/// A shard as it comes off the wire.
struct PackedShard {
  ProteinDatabase db;
  ShardIndexes indexes;
};

/// Inverse of pack_shard. Throws IoError on malformed bytes, and on a plain
/// protein list (pack_database's format is not a shard image).
PackedShard unpack_shard(std::span<const char> bytes);

/// Serialize one spectrum (for p2p query batches in the baseline and the
/// query-transport ablation).
std::vector<char> pack_spectra(std::span<const Spectrum> spectra);

/// Largest peak m/z a packed spectrum may carry. Real fragment m/z tops out
/// around 10^4 Da; anything past this is corruption, and an unbounded m/z
/// would size the binned-spectrum grid (floor(max_mz / bin_width) bins)
/// from attacker-controlled bytes.
inline constexpr double kMaxPackedPeakMz = 1.0e6;

/// Inverse of pack_spectra. Throws IoError on malformed bytes, including
/// out-of-domain values a trusting reader would crash or over-allocate on
/// downstream: non-finite/nonpositive precursor m/z, charge < 1, peak or
/// spectrum counts exceeding the payload, peak m/z outside
/// (0, kMaxPackedPeakMz], or non-finite/negative intensity.
std::vector<Spectrum> unpack_spectra(const std::vector<char>& bytes);

/// Serialize per-query partial top-τ lists (the query-transport merge).
std::vector<char> pack_hits(const QueryHits& per_query);

/// Inverse of pack_hits. Throws IoError on malformed bytes: list and hit
/// counts exceeding the payload, an unknown fragment end, trailing bytes.
QueryHits unpack_hits(const std::vector<char>& bytes);

}  // namespace msp
