// Fixed-size candidate records and the parallel mass sort over them — the
// machinery shared by the candidate-store strategy (core/candidate_store)
// and the serving ring's mass-banded shard layout (core/ring_service).
//
// A CandidateRecord is one enumerated prefix/suffix fragment, flattened to
// a fixed 104 bytes so that a contiguous mass range of a sorted record
// array maps to a byte range a single partial one-sided get can fetch.
// sort_candidate_records_by_mass() is Algorithm B's parallel counting sort
// applied to candidates instead of sequences (the extension the paper's
// Discussion anticipates): after it, rank i holds a contiguous mass *band*
// of the global record array, bands ascending with rank.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "mass/peptide.hpp"

namespace msp {

namespace sim {
class Comm;
}  // namespace sim

/// Fixed-size candidate record (fixed so a mass range maps to a byte range
/// that a single partial get can fetch).
struct CandidateRecord {
  double mass = 0.0;
  char protein_id[24] = {};   ///< NUL-padded
  char peptide[64] = {};      ///< NUL-padded residue string
  std::uint32_t offset = 0;   ///< within the parent sequence
  std::uint16_t length = 0;
  std::uint8_t end = 0;       ///< FragmentEnd underlying value
  std::uint8_t pad = 0;
};
static_assert(sizeof(CandidateRecord) == 104);

/// Enumerate `db`'s candidates whose mass lies inside [mass_floor,
/// mass_ceil] — the Section II-A prefix/suffix rule, one record per
/// candidate. Requires CandidateMode::kPrefixSuffix semantics (the k == len
/// suffix is skipped: the full sequence is already counted as a prefix).
/// Throws if a protein id does not fit the record's 24-byte field.
std::vector<CandidateRecord> enumerate_candidate_records(
    const ProteinDatabase& db, const SearchConfig& config, double mass_floor,
    double mass_ceil);

/// View fetched or exchanged record bytes as records, in place — the one
/// decode path for candidate records off the simulated wire. The payload
/// must be a whole number of records at an 8-byte-aligned address, and
/// every record must be well-formed: a finite mass, a length in
/// [1, sizeof(peptide)), a NUL as protein_id's last byte (its padding) and
/// an end no larger than FragmentEnd::kInternal. Anything else throws
/// IoError naming `what`, the record and the field, so a corrupted band can
/// never make the kernel read past a record. The span borrows `bytes`
/// (wire::checked_array_view).
std::span<const CandidateRecord> decode_candidate_records(
    std::span<const char> bytes, const char* what);

/// The records' total order: mass, then protein id, then offset, then
/// length — a pure function of record contents, so every rank sorting the
/// same multiset produces the same array.
bool candidate_record_less(const CandidateRecord& a, const CandidateRecord& b);

/// Parallel counting sort of candidate records by integer mass bucket —
/// Algorithm B's step B2 applied to candidates. Collective; returns this
/// rank's contiguous mass band (bands ascend with rank; a band may be empty
/// at tiny scale). Every integer mass is owned by exactly one rank, chosen
/// by a running balanced split of the global count array, so the
/// concatenation of all bands is the globally sorted record array.
std::vector<CandidateRecord> sort_candidate_records_by_mass(
    sim::Comm& comm, std::vector<CandidateRecord> local);

}  // namespace msp
