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

#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <string>
#include <type_traits>

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

/// View a fetched byte payload as typed records, in place: the payload must
/// be a whole number of `T`s (a short RMA fetch or a corrupted band would
/// misparse every following record) and start at an address aligned for
/// `T` (IoError on either), and `check(record, index)`, which throws on a
/// malformed record, runs over every record before the span is returned.
/// An empty payload is an empty span. Nothing is copied: bands are decoded
/// on every ring step, and a second copy of each fetched byte would cost as
/// much memory traffic as the fetch itself.
///
/// Lifetime: `T` is an implicit-lifetime type (trivially copyable, trivial
/// destructor). Every payload reaching this helper lives in allocator
/// storage and was filled by a byte copy of a `T` array (the simulated
/// rget / alltoallv copy, which lowers to memmove); allocation and memmove
/// both implicitly create objects of such types (C++20 [intro.object]/10–13,
/// [cstring.syn]), so the bytes hold an array of `T`s with exactly the
/// copied values, and std::launder yields a pointer to it. C++23 spells
/// this std::start_lifetime_as_array; C++20 has no such call. The span
/// borrows `bytes`: it is valid only while the payload buffer is neither
/// resized nor overwritten.
///
/// This is the single sanctioned bytes→typed decode path; the
/// mspar-unchecked-wire-read tidy check flags raw memcpy/reinterpret_cast
/// decodes that bypass it.
template <typename T, typename Check>
std::span<const T> checked_array_view(std::span<const char> bytes,
                                      const char* what, const Check& check) {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "wire records must be implicit-lifetime types");
  if (bytes.empty()) return {};
  if (bytes.size() % sizeof(T) != 0)
    throw IoError(std::string(what) + ": payload of " +
                  std::to_string(bytes.size()) +
                  " bytes is not a whole number of " +
                  std::to_string(sizeof(T)) + "-byte records");
  if (reinterpret_cast<std::uintptr_t>(bytes.data()) % alignof(T) != 0)
    throw IoError(std::string(what) + ": payload is not aligned to " +
                  std::to_string(alignof(T)) + " bytes");
  const T* records = std::launder(reinterpret_cast<const T*>(bytes.data()));
  const std::size_t count = bytes.size() / sizeof(T);
  for (std::size_t i = 0; i < count; ++i) check(records[i], i);
  return {records, count};
}

}  // namespace msp::wire
