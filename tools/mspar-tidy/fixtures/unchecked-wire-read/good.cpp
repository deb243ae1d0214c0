// Acceptance fixture for mspar-unchecked-wire-read: the encode direction,
// byte-to-byte copies, and decodes routed through namespace wire helpers
// are all sanctioned.
#include <mspar_fixture_std.hpp>

namespace msp {
namespace wire {

// The one sanctioned raw decode: a checked helper that validates the
// payload before viewing its bytes as records, in place (mirrors
// io/wire_record.hpp, which also checks alignment and every record).
template <typename T>
const T* checked_array_view(const std::vector<char>& bytes,
                            std::size_t& count) {
  count = bytes.size() % sizeof(T) == 0 ? bytes.size() / sizeof(T) : 0;
  return reinterpret_cast<const T*>(bytes.data());
}

}  // namespace wire
}  // namespace msp

namespace engine {

struct Record {
  double mass;
  int length;
};

// Encode direction: exposing typed records as bytes for the transport.
const char* expose_as_bytes(const std::vector<Record>& records) {
  return reinterpret_cast<const char*>(records.data());
}

// Byte-to-byte staging copies never materialize typed state.
void stage(const std::vector<char>& in, std::vector<char>& out) {
  out.resize(in.size());
  if (!in.empty()) memcpy(out.data(), in.data(), in.size());
}

const Record* checked_decode(const std::vector<char>& payload,
                             std::size_t& count) {
  return msp::wire::checked_array_view<Record>(payload, count);
}

Record justified_raw_decode(const std::vector<char>& payload) {
  Record record;
  // NOLINTNEXTLINE(mspar-unchecked-wire-read): size proven by caller
  memcpy(&record, payload.data(), sizeof(Record));
  return record;
}

}  // namespace engine
