#include "core/candidate_record.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "io/wire_record.hpp"
#include "simmpi/comm.hpp"
#include "util/error.hpp"

namespace msp {
namespace {

CandidateRecord make_record(const Protein& protein, std::uint32_t offset,
                            std::uint16_t length, FragmentEnd end,
                            double mass) {
  MSP_CHECK_MSG(protein.id.size() < sizeof(CandidateRecord{}.protein_id),
                "candidate records require protein ids < 24 chars, got '"
                    << protein.id << "'");
  CandidateRecord record;
  record.mass = mass;
  std::memcpy(record.protein_id, protein.id.data(), protein.id.size());
  std::memcpy(record.peptide, protein.residues.data() + offset, length);
  record.offset = offset;
  record.length = length;
  record.end = static_cast<std::uint8_t>(end);
  return record;
}

/// What is wrong with a decoded record, or nullptr when it is well-formed.
/// Ids are at most 23 characters and NUL-padded, so a well-formed
/// protein_id ends in NUL: one load checks it, and it bounds every C-string
/// read of the id.
const char* record_problem(const CandidateRecord& record) {
  if (!std::isfinite(record.mass)) return "mass is not finite";
  if (record.length < 2 || record.length >= sizeof(record.peptide))
    return "length is outside [2, 63]";
  if (record.protein_id[sizeof(record.protein_id) - 1] != '\0')
    return "protein_id is not NUL-terminated";
  if (record.end > static_cast<std::uint8_t>(FragmentEnd::kInternal))
    return "end is not a FragmentEnd";
  return nullptr;
}

}  // namespace

std::vector<CandidateRecord> enumerate_candidate_records(
    const ProteinDatabase& db, const SearchConfig& config, double mass_floor,
    double mass_ceil) {
  MSP_CHECK_MSG(config.max_candidate_length <
                    sizeof(CandidateRecord{}.peptide),
                "candidate records cap peptide length at 63 residues");
  std::vector<CandidateRecord> records;
  std::vector<double> sums;  // sums[k]: the first k residues' mass
  for (const Protein& protein : db.proteins) {
    const std::size_t len = protein.residues.size();
    if (len < config.min_candidate_length) continue;
    // FragmentMassIndex's sums and mass expressions: the same doubles.
    residue_prefix_sums(protein.residues, sums);
    const std::size_t max_k = std::min(len, config.max_candidate_length);
    for (std::size_t k = config.min_candidate_length; k <= max_k; ++k) {
      const double mass = sums[k] + kWaterMass;
      if (mass > mass_ceil) break;
      if (mass < mass_floor) continue;
      records.push_back(make_record(protein, 0, static_cast<std::uint16_t>(k),
                                    FragmentEnd::kPrefix, mass));
    }
    for (std::size_t k = config.min_candidate_length; k <= max_k; ++k) {
      if (k == len) break;  // full sequence already counted as a prefix
      const double mass = sums[len] - sums[len - k] + kWaterMass;
      if (mass > mass_ceil) break;
      if (mass < mass_floor) continue;
      records.push_back(make_record(protein,
                                    static_cast<std::uint32_t>(len - k),
                                    static_cast<std::uint16_t>(k),
                                    FragmentEnd::kSuffix, mass));
    }
  }
  return records;
}

std::span<const CandidateRecord> decode_candidate_records(
    std::span<const char> bytes, const char* what) {
  const auto check = [what](const CandidateRecord& record, std::size_t i) {
    if (const char* problem = record_problem(record))
      throw IoError(std::string(what) + ": record " + std::to_string(i) +
                    ": " + problem);
  };
  return wire::checked_array_view<CandidateRecord>(bytes, what, check);
}

bool candidate_record_less(const CandidateRecord& a,
                           const CandidateRecord& b) {
  if (a.mass != b.mass) return a.mass < b.mass;
  const int id_cmp = std::strncmp(a.protein_id, b.protein_id,
                                  sizeof(a.protein_id));
  if (id_cmp != 0) return id_cmp < 0;
  if (a.offset != b.offset) return a.offset < b.offset;
  return a.length < b.length;
}

std::vector<CandidateRecord> sort_candidate_records_by_mass(
    sim::Comm& comm, std::vector<CandidateRecord> local) {
  const int p = comm.size();
  double local_max = 0.0;
  for (const CandidateRecord& record : local)
    local_max = std::max(local_max, record.mass);
  const double global_max = comm.allreduce_max(local_max);
  const auto array_size = static_cast<std::size_t>(global_max) + 2;

  std::vector<std::uint64_t> counts(array_size, 0);
  for (const CandidateRecord& record : local)
    ++counts[static_cast<std::size_t>(record.mass)];
  comm.allreduce_sum(counts);

  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  std::vector<std::uint32_t> owner(array_size, 0);
  {
    std::uint64_t running = 0;
    std::uint32_t rank = 0;
    for (std::size_t v = 0; v < array_size; ++v) {
      while (rank + 1 < static_cast<std::uint32_t>(p) && total > 0 &&
             running >= (static_cast<std::uint64_t>(rank) + 1) * total /
                            static_cast<std::uint64_t>(p)) {
        ++rank;
      }
      owner[v] = rank;
      running += counts[v];
    }
  }

  std::vector<std::vector<char>> send(static_cast<std::size_t>(p));
  for (const CandidateRecord& record : local) {
    auto& payload = send[owner[static_cast<std::size_t>(record.mass)]];
    const char* bytes = reinterpret_cast<const char*>(&record);
    payload.insert(payload.end(), bytes, bytes + sizeof(CandidateRecord));
  }
  const auto received = comm.alltoallv(send);

  std::vector<CandidateRecord> sorted;
  for (const auto& payload : received) {
    const std::span<const CandidateRecord> decoded =
        decode_candidate_records(payload, "exchanged candidate payload");
    sorted.insert(sorted.end(), decoded.begin(), decoded.end());
  }
  std::sort(sorted.begin(), sorted.end(), candidate_record_less);
  return sorted;
}

}  // namespace msp
