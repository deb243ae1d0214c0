// Packed payloads: the byte images the parallel drivers move between ranks.
//
// The paper transports raw database fragments ("database transport model");
// we serialize a shard's proteins (and its indexes) into one contiguous
// buffer so an RMA get of the shard is a single modeled transfer, exactly
// like the C original. One encoder writes that image: a shared head
// (MSPARIDX header, proteins, candidate index) and, for open search, the
// fragment-index record put_fragment_index lays out. The receiver scores
// that buffer where it landed: unpack_shard validates the image in place
// and returns a ShardView into it, so a rank holds only the paper's
// D_local, D_recv and D_comp, never a decoded copy of a shard it scores.
#pragma once

#include <span>
#include <vector>

#include "core/candidate_index.hpp"
#include "core/hit.hpp"
#include "core/shard_view.hpp"
#include "mass/peptide.hpp"
#include "spectra/spectrum.hpp"

namespace msp {

/// Serialize a plain protein list: the payload Algorithm B's counting sort
/// exchanges (sortmz.cpp).
std::vector<char> pack_database(const ProteinDatabase& db);

/// Inverse of pack_database. Throws IoError on malformed bytes, and on a
/// shard image (pack_shard's format is not a protein list).
ProteinDatabase unpack_database(std::span<const char> bytes);

/// Serialize a shard with its candidate index — the image the rings expose
/// and fetch when no fragment index rides along: a versioned MSPARIDX
/// lead-in, the proteins and the candidate index (with the envelope it was
/// clipped for). The index is built once at pack time and rides with the
/// shard bytes, so every rank a rotation delivers the shard to reuses one
/// enumeration. The image carries exactly what its receiver scores:
/// routing state travels once, in ShardMassMap::exchange, never per fetch.
std::vector<char> pack_shard(const ProteinDatabase& db,
                             const CandidateIndex& index);

/// A shard image and the posting count of its fragment-index trailer.
struct ShardImage {
  std::vector<char> bytes;
  std::uint64_t postings = 0;
};

/// The image open search ships: pack_shard(db, index) followed by the
/// MSPARFRG record of FragmentIndex::build(db, index, bin_width), its CSR
/// scattered straight into the image by put_fragment_index (no
/// FragmentIndex is built).
ShardImage pack_shard(const ProteinDatabase& db, const CandidateIndex& index,
                      double bin_width);

/// Validate a shard image where it sits and view it: the protein table,
/// the candidate entries and the fragment postings all point into
/// `image`, which nothing copies. Every check a decoder needs runs first —
/// protein and entry counts bounded by the payload, each entry's mass
/// finite, ascending and inside the recorded envelope, its protein ordinal
/// and residue range in bounds, its length inside the recorded
/// [min_length, max_length] (min_length at least 2), its end known, the
/// fragment CSR intact and covering the entries, no trailing bytes — and
/// throws IoError, also on a plain protein list (pack_database's format is
/// not a shard image).
///
/// The view borrows `image`: it is valid while that buffer is neither
/// freed, resized nor overwritten (ShardWindow::settle swaps D_recv into
/// D_comp, and the next prefetch refills D_recv).
ShardView unpack_shard(std::span<const char> image);

/// A temporary image cannot be viewed: its view would dangle at the end
/// of the full expression, so `unpack_shard(pack_shard(...))` does not
/// compile.
ShardView unpack_shard(std::vector<char>&& image) = delete;

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
