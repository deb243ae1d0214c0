#include "core/shard_map.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "io/wire_record.hpp"
#include "simmpi/comm.hpp"
#include "util/error.hpp"

namespace msp {

namespace {

// Leads the histogram record, the ShardMassMap::exchange payload.
// "MSPARHST" in ASCII — distinct from the indexed-shard magic.
constexpr std::uint64_t kHistogramMagic = 0x4D53504152485354ull;
constexpr std::uint32_t kHistogramVersion = 1;
// The most buckets a grid may have: indices 0 … UINT32_MAX.
constexpr std::uint64_t kMaxBuckets = std::uint64_t{UINT32_MAX} + 1;

/// The one-pass body over any mass-ascending array: `mass_of` reads each
/// element's mass where it sits, so no overload copies the masses out.
template <typename T, typename MassOf>
MassHistogram histogram_of(std::span<const T> items, double width,
                           const MassOf& mass_of) {
  MSP_CHECK_MSG(width > 0.0 && std::isfinite(width),
                "histogram bucket width must be positive and finite");
  // One pass over a mass-ascending sequence: buckets come out
  // index-ascending, the grid extent fixed by the extremes.
  MassHistogram histogram;
  histogram.bucket_width = width;
  if (items.empty()) return histogram;
  histogram.min_mass = mass_of(items.front());
  const double max_mass = mass_of(items.back());
  // Bucket indices are u32 in memory and on the wire: a grid whose last
  // index does not fit would wrap the heavy masses onto low buckets, and
  // routing and record_range would then under-cover them.
  const double last_bucket = (max_mass - histogram.min_mass) / width;
  MSP_CHECK_MSG(last_bucket >= 0.0, "histogram masses must be non-decreasing");
  if (!(last_bucket < static_cast<double>(kMaxBuckets))) {
    std::ostringstream message;
    message << "histogram bucket width " << width << " Da over the mass range ["
            << histogram.min_mass << ", " << max_mass
            << "] needs more than 2^32 buckets";
    throw InvalidArgument(message.str());
  }
  histogram.bucket_count = static_cast<std::uint64_t>(last_bucket) + 1;
  const auto last = static_cast<double>(histogram.bucket_count - 1);
  for (const T& item : items) {
    const double offset = (mass_of(item) - histogram.min_mass) / width;
    MSP_CHECK_MSG(offset >= 0.0, "histogram masses must be non-decreasing");
    const auto bucket = static_cast<std::uint32_t>(std::min(last, offset));
    if (!histogram.buckets.empty() &&
        histogram.buckets.back().index == bucket) {
      // Saturate rather than wrap: routing only asks "nonzero?". (A
      // saturated count would make record_range inexact — the serving ring
      // guards by checking total() against its band size.)
      if (histogram.buckets.back().count != UINT32_MAX)
        ++histogram.buckets.back().count;
    } else {
      MSP_CHECK_MSG(histogram.buckets.empty() ||
                        bucket > histogram.buckets.back().index,
                    "histogram masses must be non-decreasing");
      histogram.buckets.push_back(MassBucket{bucket, 1});
    }
  }
  return histogram;
}

}  // namespace

MassHistogram MassHistogram::build(const CandidateIndex& index, double width) {
  return build(std::span<const IndexedCandidate>(index.entries()), width);
}

MassHistogram MassHistogram::build(std::span<const IndexedCandidate> entries,
                                   double width) {
  return histogram_of(entries, width,
                      [](const IndexedCandidate& entry) { return entry.mass; });
}

MassHistogram MassHistogram::build(std::span<const CandidateRecord> records,
                                   double width) {
  return histogram_of(
      records, width, [](const CandidateRecord& record) { return record.mass; });
}

MassHistogram MassHistogram::build(std::span<const double> masses,
                                   double width) {
  return histogram_of(masses, width, [](double mass) { return mass; });
}

std::uint64_t MassHistogram::total() const {
  std::uint64_t total = 0;
  for (const MassBucket& bucket : buckets) total += bucket.count;
  return total;
}

namespace {

/// Clamped integer bucket index of `mass` on the histogram grid: the floor
/// of (mass − min_mass) / width as an int64, saturated just outside the
/// representable bucket-index domain. All routing comparisons below are
/// then pure integer arithmetic — the old float form compared unclamped
/// doubles against bucket indices and cast them to uint32, which is
/// undefined behavior for NaN and for quotients beyond the uint32 range.
/// NaN saturates low (reject side): a NaN query mass must never claim a
/// band visit, and masses are validated long before routing anyway.
std::int64_t bucket_floor_clamped(double mass, double min_mass, double width) {
  // One past any representable bucket index (indices are uint32 on wire).
  constexpr std::int64_t kAboveGrid =
      static_cast<std::int64_t>(UINT32_MAX) + 1;
  constexpr std::int64_t kBelowGrid = -3;  // below any ±1-widened window
  const double q = std::floor((mass - min_mass) / width);
  if (!(q >= static_cast<double>(kBelowGrid))) return kBelowGrid;
  if (q >= static_cast<double>(kAboveGrid)) return kAboveGrid;
  return static_cast<std::int64_t>(q);
}

}  // namespace

bool MassHistogram::occupied(double lo, double hi) const {
  if (buckets.empty() || hi < lo) return false;
  // Widen by one bucket per side before the grid test so boundary rounding
  // can only produce false positives, never a wrong skip.
  const std::int64_t lo_bucket =
      bucket_floor_clamped(lo, min_mass, bucket_width) - 1;
  const std::int64_t hi_bucket =
      bucket_floor_clamped(hi, min_mass, bucket_width) + 1;
  if (hi_bucket < 0) return false;
  const auto last = static_cast<std::int64_t>(buckets.back().index);
  if (lo_bucket > last) return false;
  // lo_bucket ≤ last < 2^32 here, so the narrowing cast is exact.
  const std::uint32_t first_wanted =
      lo_bucket <= 0 ? 0u : static_cast<std::uint32_t>(lo_bucket);
  const auto it = std::lower_bound(
      buckets.begin(), buckets.end(), first_wanted,
      [](const MassBucket& bucket, std::uint32_t want) {
        return bucket.index < want;
      });
  return it != buckets.end() &&
         static_cast<std::int64_t>(it->index) <= hi_bucket;
}

std::pair<std::uint64_t, std::uint64_t> MassHistogram::record_range(
    double lo, double hi) const {
  if (buckets.empty() || hi < lo) return {0, 0};
  // The same ±1-bucket widening as occupied(): rounding at the window edges
  // can only widen the returned range, never drop a matching record.
  const std::int64_t lo_bucket =
      bucket_floor_clamped(lo, min_mass, bucket_width) - 1;
  const std::int64_t hi_bucket =
      bucket_floor_clamped(hi, min_mass, bucket_width) + 1;
  if (hi_bucket < 0) return {0, 0};
  // Prefix sums over the sparse encoding: records are bucket-ascending in
  // the summarized array, so "count of records in buckets < b" is the index
  // of the first record at or above bucket b.
  std::uint64_t first = 0;
  std::uint64_t last = 0;
  for (const MassBucket& bucket : buckets) {
    const auto index = static_cast<std::int64_t>(bucket.index);
    if (index < lo_bucket) first += bucket.count;
    if (index <= hi_bucket)
      last += bucket.count;
    else
      break;
  }
  return {first, last};
}

void put_histogram(wire::Writer& writer, const MassHistogram& histogram) {
  wire::put_record_header(writer, kHistogramMagic, kHistogramVersion);
  writer.put_double(histogram.bucket_width);
  writer.put_double(histogram.min_mass);
  writer.put_u64(histogram.bucket_count);
  writer.put_u64(histogram.buckets.size());
  writer.reserve(histogram.buckets.size() * 2 * sizeof(std::uint32_t));
  for (const MassBucket& bucket : histogram.buckets) {
    writer.put_u32(bucket.index);
    writer.put_u32(bucket.count);
  }
}

MassHistogram get_histogram(wire::Reader& reader) {
  wire::get_record_header(reader, kHistogramMagic, kHistogramVersion,
                          "shard mass histogram");
  MassHistogram histogram;
  histogram.bucket_width = reader.get_double();
  histogram.min_mass = reader.get_double();
  histogram.bucket_count = reader.get_u64();
  const std::uint64_t nonzero = reader.get_u64();
  if (!(histogram.bucket_width > 0.0) ||
      !std::isfinite(histogram.bucket_width))
    throw IoError("shard mass histogram: bucket width must be positive "
                  "and finite");
  if (!std::isfinite(histogram.min_mass))
    throw IoError("shard mass histogram: min mass must be finite");
  if (histogram.bucket_count > kMaxBuckets)
    throw IoError("shard mass histogram: bucket count " +
                  std::to_string(histogram.bucket_count) +
                  " exceeds the 2^32 a u32 bucket index can address");
  if (nonzero > histogram.bucket_count)
    throw IoError("shard mass histogram: more nonzero buckets than the "
                  "grid holds");
  if (nonzero > reader.remaining() / (2 * sizeof(std::uint32_t)))
    throw IoError("shard mass histogram: bucket count exceeds payload");
  histogram.buckets.reserve(nonzero);
  for (std::uint64_t i = 0; i < nonzero; ++i) {
    MassBucket bucket;
    bucket.index = reader.get_u32();
    bucket.count = reader.get_u32();
    if (bucket.count == 0)
      throw IoError("shard mass histogram: zero-count bucket in sparse "
                    "encoding");
    if (bucket.index >= histogram.bucket_count)
      throw IoError("shard mass histogram: bucket index " +
                    std::to_string(bucket.index) + " outside grid of " +
                    std::to_string(histogram.bucket_count));
    if (!histogram.buckets.empty() &&
        bucket.index <= histogram.buckets.back().index)
      throw IoError("shard mass histogram: bucket indices must be strictly "
                    "ascending");
    histogram.buckets.push_back(bucket);
  }
  return histogram;
}

ShardMassMap ShardMassMap::exchange(sim::Comm& comm,
                                    const MassHistogram& local) {
  wire::Writer writer;
  put_histogram(writer, local);
  const std::vector<char> mine = writer.take();

  const int p = comm.size();
  std::vector<MassHistogram> shards;
  shards.reserve(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    const std::vector<char> bytes = comm.bcast(r, mine);
    wire::Reader reader(bytes);
    shards.push_back(get_histogram(reader));
    if (!reader.exhausted())
      throw IoError("shard mass histogram: trailing bytes in exchange "
                    "payload");
  }
  return ShardMassMap(std::move(shards));
}

const MassHistogram& ShardMassMap::histogram(int shard) const {
  MSP_CHECK_MSG(shard >= 0 && shard < shard_count(),
                "shard mass map: shard out of range");
  return shards_[static_cast<std::size_t>(shard)];
}

bool ShardMassMap::needed(int shard,
                          std::span<const double> hypothesis_masses,
                          double below_da, double above_da) const {
  const MassHistogram& hist = histogram(shard);
  for (const double mass : hypothesis_masses)
    if (hist.occupied(mass - below_da, mass + above_da)) return true;
  return false;
}

std::vector<std::uint8_t> ShardMassMap::route(
    std::span<const double> hypothesis_masses, double below_da,
    double above_da) const {
  std::vector<std::uint8_t> verdict(shards_.size());
  for (int shard = 0; shard < shard_count(); ++shard)
    verdict[static_cast<std::size_t>(shard)] =
        needed(shard, hypothesis_masses, below_da, above_da) ? 1 : 0;
  return verdict;
}

}  // namespace msp
