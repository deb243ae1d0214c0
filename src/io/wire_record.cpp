#include "io/wire_record.hpp"

#include <string>

#include "util/error.hpp"

namespace msp::wire {

void put_record_header(Writer& writer, std::uint64_t magic,
                       std::uint32_t version) {
  writer.put_u64(magic);
  writer.put_u32(version);
}

bool peek_record(Reader& reader, std::uint64_t magic) {
  return reader.remaining() >= sizeof(std::uint64_t) &&
         reader.peek_u64() == magic;
}

void get_record_header(Reader& reader, std::uint64_t magic,
                       std::uint32_t version, const char* what) {
  if (reader.get_u64() != magic)
    throw IoError(std::string(what) + ": bad magic");
  const std::uint32_t seen = reader.get_u32();
  if (seen != version)
    throw IoError(std::string(what) + ": unsupported version " +
                  std::to_string(seen));
}

}  // namespace msp::wire
