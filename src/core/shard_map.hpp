// Global shard mass map: the routing layer for the ring algorithms.
//
// Algorithm B's core observation — a mass-partitioned database means only a
// sub-range of processors can hold candidates for a query — also applies to
// the *unsorted* sharding of Algorithm A and the serving ring, just in a
// weaker form: any shard can be asked about any mass, but at narrow
// precursor tolerance most (query, shard) pairs provably match nothing. A
// MassHistogram summarizes one shard's CandidateIndex as a bucketed
// occupancy map over candidate mass; a ShardMassMap is all p histograms,
// replicated on every rank. A routing check asks "could shard j hold ANY
// candidate within ±δ of ANY of these hypothesis masses?" — a conservative
// question: "no" is a proof (the ring step can be skipped, fetch and
// scoring included, without touching the hits), "yes" merely means the
// shard must be visited as before. Skipping is an optimization, never a
// correctness decision.
//
// Determinism: histograms are built from the (deterministic) CandidateIndex
// or band and exchanged collectively before the first ring step, so every
// rank holds byte-identical map state. Routing decisions are pure
// functions of (map, hypothesis masses, δ) — replicated controllers
// evaluating them at fence boundaries agree without any control messages
// (DESIGN.md §5h).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/candidate_index.hpp"
#include "core/candidate_record.hpp"

namespace msp {

namespace wire {
class Writer;
class Reader;
}  // namespace wire

namespace sim {
class Comm;
}  // namespace sim

/// Default histogram bucket width in daltons. Candidate masses run a few
/// per dalton per shard at test scale, so the bucket grid must be finer
/// than the narrow precursor windows (~0.02–0.05 Da) routing is meant to
/// exploit; 0.01 Da keeps the sparse encoding proportional to the number
/// of candidates, not the mass range.
inline constexpr double kDefaultRouteBucketDa = 0.01;

/// One nonzero bucket of a shard's mass histogram (sparse encoding).
struct MassBucket {
  std::uint32_t index = 0;  ///< bucket ordinal: floor((mass - min) / width)
  std::uint32_t count = 0;  ///< candidates whose mass lands in the bucket
};

/// Bucketed occupancy map over one shard's candidate masses. Buckets are
/// stored sparsely (nonzero only, index-ascending), so wire and memory cost
/// scale with the candidates actually present.
struct MassHistogram {
  double bucket_width = kDefaultRouteBucketDa;
  double min_mass = 0.0;          ///< lightest candidate mass (bucket 0 floor)
  std::uint64_t bucket_count = 0; ///< grid extent; 0 for an empty shard
  std::vector<MassBucket> buckets;

  /// Summarize `index` (entries are mass-ascending, so this is one linear
  /// pass). An empty index yields an empty histogram — which routes as
  /// "never needed", the correct answer for a shard with no candidates.
  static MassHistogram build(const CandidateIndex& index,
                             double width = kDefaultRouteBucketDa);
  /// The same over mass-ascending entries wherever they live (a shard
  /// image's, viewed in place).
  static MassHistogram build(std::span<const IndexedCandidate> entries,
                             double width = kDefaultRouteBucketDa);
  /// The same over a mass-ascending CandidateRecord band (the serving
  /// ring's), read in place.
  static MassHistogram build(std::span<const CandidateRecord> records,
                             double width = kDefaultRouteBucketDa);

  /// Summarize an ascending mass array. Same encoding as the index
  /// overload; `masses` must be non-decreasing. Every overload throws
  /// InvalidArgument, naming the width, when the grid would need more than
  /// 2^32 buckets (its indices are u32).
  static MassHistogram build(std::span<const double> masses,
                             double width = kDefaultRouteBucketDa);

  bool empty() const { return buckets.empty(); }
  std::uint64_t total() const;

  /// Conservative occupancy test for the closed mass interval [lo, hi]:
  /// false proves no candidate mass lies inside; true may be a false
  /// positive. The grid test widens the interval by one bucket on each side
  /// so floating-point boundary cases always err toward "occupied".
  bool occupied(double lo, double hi) const;

  /// Conservative index range [first, last) into the mass-ascending array
  /// this histogram summarizes: every element whose mass lies in [lo, hi]
  /// has index in the range (the range may over-cover by up to one bucket
  /// plus the ±1-bucket widening occupied() uses, never under-cover).
  /// Computed by prefix sums over the sparse bucket counts, so it is only
  /// exact when counts never saturated — the ring checks total() against
  /// the band size at construction. Empty histogram → {0, 0}.
  std::pair<std::uint64_t, std::uint64_t> record_range(double lo,
                                                       double hi) const;
};

/// Append `histogram` as a versioned, magic-tagged record (the
/// ShardMassMap::exchange payload).
void put_histogram(wire::Writer& writer, const MassHistogram& histogram);

/// Parse a histogram record, validating magic, version, and invariants
/// (positive finite width, index-ascending nonzero buckets inside the
/// grid). Throws IoError with a specific message on any violation.
MassHistogram get_histogram(wire::Reader& reader);

/// All p shard histograms, replicated identically on every rank. Routing
/// state is complete or absent: a map holds one histogram per shard, and a
/// ring that does not route holds none and asks nothing.
class ShardMassMap {
 public:
  ShardMassMap() = default;
  explicit ShardMassMap(std::vector<MassHistogram> shards)
      : shards_(std::move(shards)) {}

  /// Collective: every rank broadcasts its local shard's histogram and
  /// collects the other p−1, leaving identical map state everywhere. Must
  /// run before the first ring step (and before any crash can fire), like
  /// the replica pull.
  static ShardMassMap exchange(sim::Comm& comm, const MassHistogram& local);

  int shard_count() const { return static_cast<int>(shards_.size()); }
  /// `shard`'s histogram; `shard` must be in [0, shard_count()).
  const MassHistogram& histogram(int shard) const;

  /// Must the ring visit `shard` for queries with these hypothesis masses?
  /// A candidate of mass M matches hypothesis mass m iff
  /// M ∈ [m − below, m + above] (narrow search passes ±tolerance; in
  /// open/PTM search a variant carrying +Δ of modification mass is observed
  /// Δ *above* its base peptide, so the window below m widens by the
  /// maximum positive Δ and the window above by the maximum negative one).
  /// Routing must widen by exactly the kernel's
  /// SearchConfig::window_below()/window_above() or the skip proof no
  /// longer covers modified precursors. Known-empty shards always answer
  /// false.
  bool needed(int shard, std::span<const double> hypothesis_masses,
              double below_da, double above_da) const;
  /// needed() for every shard: the router's per-shard verdict vector
  /// (1 = visit, 0 = provably empty, skip), one entry per shard.
  std::vector<std::uint8_t> route(std::span<const double> hypothesis_masses,
                                  double below_da, double above_da) const;

 private:
  std::vector<MassHistogram> shards_;
};

}  // namespace msp
