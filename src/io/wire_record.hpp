// Shared framing for magic-tagged wire records.
//
// Several shard-pack sections are self-describing records: an 8-byte ASCII
// magic (so a reader can peek whether the record is present at all — the
// magics cannot collide with a legacy image's leading count field) followed
// by a u32 format version. The histogram record
// ("MSPARHST"), the indexed-shard lead-in ("MSPARIDX"), and the fragment-ion
// index record ("MSPARFRG") all share this shape; the helpers below are the
// one place the peek/validate/reject logic lives, so every record family
// fails corruption the same way (IoError with a record-specific message).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "core/wire.hpp"

namespace msp::wire {

/// Append a versioned record header (magic + u32 version).
void put_record_header(Writer& writer, std::uint64_t magic,
                       std::uint32_t version);

/// True when the reader is positioned at `magic` (nothing is consumed).
/// False on short payloads too, so callers can probe optional trailers.
bool peek_record(Reader& reader, std::uint64_t magic);

/// Consume and validate a versioned record header: the magic must match and
/// the version must equal `version` exactly (records are versioned so a
/// future format bump fails loudly instead of misparsing). Throws IoError
/// with "<what>: bad magic" / "<what>: unsupported version N".
void get_record_header(Reader& reader, std::uint64_t magic,
                       std::uint32_t version, const char* what);

/// Decode a fetched byte payload into typed records: the payload must be a
/// whole number of `T`s (IoError otherwise — a short RMA fetch or corrupted
/// band would misparse every following record), the bytes land in `out`,
/// and `check(record, index)`, which throws on a malformed record, runs
/// over every record. Copy and check go 16 KB at a time, so each record is
/// checked while it is still in L1: bands are decoded on every ring step,
/// and a second pass over them would cost as much memory traffic as the
/// copy. This is the single sanctioned bytes→typed decode path; the
/// mspar-unchecked-wire-read tidy check flags raw memcpy/reinterpret_cast
/// decodes that bypass it.
template <typename T, typename Check>
std::span<const T> checked_array_copy(std::span<const char> bytes,
                                      std::vector<T>& out, const char* what,
                                      const Check& check) {
  static_assert(std::is_trivially_copyable_v<T>,
                "wire records must be trivially copyable");
  if (bytes.size() % sizeof(T) != 0)
    throw IoError(std::string(what) + ": payload of " +
                  std::to_string(bytes.size()) +
                  " bytes is not a whole number of " +
                  std::to_string(sizeof(T)) + "-byte records");
  const std::size_t count = bytes.size() / sizeof(T);
  out.resize(count);
  constexpr std::size_t kBlock = std::max<std::size_t>(1, 16384 / sizeof(T));
  for (std::size_t first = 0; first < count; first += kBlock) {
    const std::size_t last = std::min(count, first + kBlock);
    std::memcpy(out.data() + first, bytes.data() + first * sizeof(T),
                (last - first) * sizeof(T));
    for (std::size_t i = first; i < last; ++i) check(out[i], i);
  }
  return {out.data(), out.size()};
}

}  // namespace msp::wire
