// The one wire layer: the byte framing every shard image, p2p payload and
// exchange record is written and read with.
//
// Writer/Reader encode native types by memcpy — all "ranks" share one
// process, so byte order never changes underneath us; the Reader still
// bounds-checks every read so corrupted payloads fail loudly (IoError).
//
// Self-describing records lead with an 8-byte ASCII magic (so a reader can
// peek whether an optional record is present at all) followed by a u32
// format version. The indexed-shard lead-in ("MSPARIDX"), the fragment-ion
// index trailer ("MSPARFRG") and the shard-mass-histogram exchange payload
// ("MSPARHST") all share this shape; the record helpers below are the one
// place the peek/validate/reject logic lives, so every record family fails
// corruption the same way (IoError with a record-specific message).
//
// Reading in place. A fetched shard image is validated where it sits and
// scored through views into it (core/packdb.hpp): Reader::get_string_view
// and Reader::get_bytes hand out borrowed slices, checked_array_view types
// an array of alignment-1 or aligned records, and unaligned_view reads an
// array of scalars at any address through memcpy loads (the
// image's layout packs fields back to back, so its u32 arrays sit at
// arbitrary offsets). Every view borrows the payload: it is valid only
// while that buffer is neither resized, overwritten nor freed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/error.hpp"

namespace msp::wire {

class Writer {
 public:
  void put_u8(std::uint8_t value) { put_raw(&value, sizeof(value)); }
  void put_u32(std::uint32_t value) { put_raw(&value, sizeof(value)); }
  void put_u64(std::uint64_t value) { put_raw(&value, sizeof(value)); }
  void put_i32(std::int32_t value) { put_raw(&value, sizeof(value)); }
  void put_double(double value) { put_raw(&value, sizeof(value)); }

  /// Reserve `size` bytes up front (e.g. before streaming a candidate
  /// index whose wire size is known exactly).
  void reserve(std::size_t size) { bytes_.reserve(bytes_.size() + size); }

  void put_string(std::string_view text) {
    MSP_CHECK_MSG(text.size() <= UINT32_MAX, "string too long for wire");
    put_u32(static_cast<std::uint32_t>(text.size()));
    put_raw(text.data(), text.size());
  }

  /// Append `values` as one block of their in-memory bytes — the bulk
  /// form of a put_* per field. `T` must have no padding bytes (the
  /// encoders static_assert their record sizes), or byte-identical
  /// images would depend on uninitialized memory.
  template <typename T>
  void put_array(std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "bulk-encoded records must be trivially copyable");
    put_raw(values.data(), values.size_bytes());
  }

  /// Append `size` zero bytes and return the offset of the first, for the
  /// caller to fill in place through data() and store() (a scatter whose
  /// order differs from the byte order, e.g. a CSR's postings).
  std::size_t put_zeros(std::size_t size) {
    const std::size_t offset = bytes_.size();
    bytes_.resize(offset + size);
    return offset;
  }

  /// Start of the bytes written so far: valid until the next put_* or
  /// reserve.
  char* data() { return bytes_.data(); }

  const std::vector<char>& bytes() const { return bytes_; }
  std::vector<char> take() { return std::move(bytes_); }

 private:
  void put_raw(const void* data, std::size_t size) {
    const char* begin = static_cast<const char*>(data);
    bytes_.insert(bytes_.end(), begin, begin + size);
  }
  std::vector<char> bytes_;
};

class Reader {
 public:
  explicit Reader(const std::vector<char>& bytes)
      : data_(bytes.data()), size_(bytes.size()) {}
  Reader(const char* data, std::size_t size) : data_(data), size_(size) {}

  std::uint8_t get_u8() { return get_pod<std::uint8_t>(); }
  std::uint32_t get_u32() { return get_pod<std::uint32_t>(); }
  std::uint64_t get_u64() { return get_pod<std::uint64_t>(); }
  std::int32_t get_i32() { return get_pod<std::int32_t>(); }
  double get_double() { return get_pod<double>(); }

  /// Peek the next u64 without consuming it (format discrimination).
  std::uint64_t peek_u64() {
    require(sizeof(std::uint64_t));
    std::uint64_t value;
    std::memcpy(&value, data_ + offset_, sizeof(value));
    return value;
  }

  std::string get_string() { return std::string(get_string_view()); }

  /// A length-prefixed string, borrowed from the payload.
  std::string_view get_string_view() {
    const std::uint32_t length = get_u32();
    const std::span<const char> text = get_bytes(length);
    return {text.data(), text.size()};
  }

  /// The next `size` bytes, borrowed from the payload.
  std::span<const char> get_bytes(std::size_t size) {
    require(size);
    const std::span<const char> out(data_ + offset_, size);
    offset_ += size;
    return out;
  }

  bool exhausted() const { return offset_ == size_; }
  std::size_t remaining() const { return size_ - offset_; }

 private:
  template <typename T>
  T get_pod() {
    require(sizeof(T));
    T value;
    std::memcpy(&value, data_ + offset_, sizeof(T));
    offset_ += sizeof(T);
    return value;
  }

  void require(std::size_t bytes) const {
    if (bytes > size_ - offset_)
      throw IoError("wire: truncated payload (need " + std::to_string(bytes) +
                    " bytes at offset " + std::to_string(offset_) + " of " +
                    std::to_string(size_) + ")");
  }

  const char* data_;
  std::size_t size_;
  std::size_t offset_ = 0;
};

/// Write `value`'s bytes at `at`, which may have any alignment (the
/// in-place fill of a region put_zeros appended).
template <typename T>
void store(char* at, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::memcpy(at, &value, sizeof(T));
}

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

/// An array of scalars `T` stored back to back at any alignment, read by
/// memcpy loads: element i is the sizeof(T) bytes at data + i·sizeof(T).
/// Views the arrays of a packed image in place (its u32 runs sit at
/// whatever offset the preceding strings left). Borrowed: valid while the
/// underlying bytes are.
template <typename T>
class UnalignedSpan {
  static_assert(std::is_arithmetic_v<T>,
                "unaligned spans hold scalars (no padding, any bit "
                "pattern a valid value after validation)");

 public:
  UnalignedSpan() = default;

  /// First byte of element 0.
  const char* data() const { return data_; }
  std::size_t size() const { return size_; }
  T operator[](std::size_t i) const {
    T value;
    std::memcpy(&value, data_ + i * sizeof(T), sizeof(T));
    return value;
  }
  /// Elements [offset, offset + count).
  UnalignedSpan subspan(std::size_t offset, std::size_t count) const {
    return UnalignedSpan(data_ + offset * sizeof(T), count);
  }
  /// First position whose element is not less than `value` (the array
  /// must be ascending), as std::lower_bound.
  std::size_t lower_bound(T value) const {
    std::size_t lo = 0;
    std::size_t hi = size_;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if ((*this)[mid] < value)
        lo = mid + 1;
      else
        hi = mid;
    }
    return lo;
  }

 private:
  UnalignedSpan(const char* data, std::size_t size)
      : data_(data), size_(size) {}

  const char* data_ = nullptr;
  std::size_t size_ = 0;

  template <typename U>
  friend UnalignedSpan<U> unaligned_view(std::span<const char>, const char*);
};

/// checked_array_view's sibling for scalar arrays at any alignment: the
/// payload must be a whole number of `T`s (IoError otherwise). The values
/// are untrusted: the caller validates them before using any — a CSR's
/// invariants span runs of values, which a per-element check cannot see.
/// Nothing is copied; the view borrows `bytes`.
template <typename T>
UnalignedSpan<T> unaligned_view(std::span<const char> bytes,
                                const char* what) {
  if (bytes.size() % sizeof(T) != 0)
    throw IoError(std::string(what) + ": payload of " +
                  std::to_string(bytes.size()) +
                  " bytes is not a whole number of " +
                  std::to_string(sizeof(T)) + "-byte values");
  return UnalignedSpan<T>(bytes.data(), bytes.size() / sizeof(T));
}

}  // namespace msp::wire
