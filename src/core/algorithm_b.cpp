#include "core/algorithm_b.hpp"

#include <algorithm>

#include "core/packdb.hpp"
#include "core/partition.hpp"
#include "core/rank_steps.hpp"
#include "core/search_engine.hpp"
#include "core/sortmz.hpp"
#include "mass/amino_acid.hpp"
#include "scoring/top_hits.hpp"
#include "simmpi/comm.hpp"
#include "util/error.hpp"

namespace msp {
namespace {

/// First rank whose sorted m/z range can still contain a sequence of
/// neutral mass ≥ needed_mass (the paper's i′). Conservative by a small
/// slack: skipping is an optimization, never a correctness decision.
int lowest_useful_rank(const std::vector<MzBoundary>& boundaries,
                       double needed_mass) {
  const double needed_mz = needed_mass + kProtonMass - 2.0;  // slack
  for (int r = 0; r < static_cast<int>(boundaries.size()); ++r) {
    if (boundaries[static_cast<std::size_t>(r)].end_mz >= needed_mz) return r;
  }
  return static_cast<int>(boundaries.size());  // empty sender group
}

}  // namespace

AlgorithmBResult run_algorithm_b(const sim::Runtime& runtime,
                                 const std::string& fasta_image,
                                 const std::vector<Spectrum>& queries,
                                 const SearchConfig& config) {
  if (runtime.faults().has_crashes())
    throw FaultUnrecoverable(
        "algorithm B: the sorted shards have no replica to recover a "
        "crashed rank from");
  const int p = runtime.size();
  const SearchEngine engine(config);

  QueryHits all_hits(queries.size());

  sim::RunReport report = runtime.run([&](sim::Comm& comm) {
    const int rank = comm.rank();
    const auto& cost = comm.compute_model();

    // ---- B1: load (identical to A1) ----
    comm.trace_mark("B1 load+prepare");
    ProteinDatabase local_db = detail::load_rank_chunk(comm, fasta_image);
    const QueryRange block = query_block(queries.size(), rank, p);
    const std::span<const Spectrum> local_queries(queries.data() + block.begin,
                                                  block.count());
    const PreparedQueries prepared = engine.prepare(local_queries);
    comm.clock().charge_compute(static_cast<double>(block.count()) *
                                cost.seconds_per_query_prep);
    std::vector<TopK<Hit>> tops = engine.make_tops(block.count());

    // ---- B2: parallel counting sort by parent m/z ----
    comm.trace_mark("B2 mz sort");
    SortedShard sorted = parallel_sort_by_mz(comm, local_db);
    local_db = ProteinDatabase{};  // sorted copy replaces the unsorted shard
    comm.bump("sort_us",
              static_cast<std::uint64_t>(sorted.sort_seconds * 1e6));

    // ---- B3: restricted ring with masked one-sided transport ----
    // Sender group {i′, ..., p−1}: only those sorted shards can contain
    // sequences heavy enough to offer candidates to any local query.
    // window_below() degenerates to tolerance_da in narrow mode; in open
    // mode it widens the restriction so heavy modified matches stay in the
    // sender group (conservative-safe, like the slack below).
    const double min_needed =
        prepared.size() == 0 ? 0.0
                             : prepared.min_mass() - config.window_below();
    const int low_rank =
        prepared.size() == 0 ? p : lowest_useful_rank(sorted.boundaries,
                                                      min_needed);
    const int group = p - low_rank;
    comm.bump("shards_visited", static_cast<std::uint64_t>(group));

    // Index the sorted shard once, clipped to the whole query set's
    // envelope, straight into the image the restricted ring ships (same
    // candidate-centric transport as Algorithm A).
    const std::vector<char> local_pack = detail::build_shard_image(
        comm, sorted.shard, config,
        detail::query_mass_envelope(engine, queries));
    sorted.shard = ProteinDatabase{};  // the image is D_local now
    const ShardView local = unpack_shard(local_pack);
    // Crash schedules were rejected up front: the window never replicates.
    detail::ShardWindow window(comm, local_pack, p);
    comm.charge_alloc(static_cast<std::size_t>(p) * sizeof(MzBoundary));

    // Ranks may have different sender-group sizes; iterate to the global
    // maximum so the per-iteration fences stay collective.
    const auto max_group =
        static_cast<int>(comm.allreduce_max(static_cast<double>(group)));

    // Visit own shard first when it is in the group, then rotate within
    // the group so concurrent ranks spread their pulls.
    auto shard_at = [&](int t) -> int {
      if (group == 0 || t >= group) return -1;
      const int offset = rank >= low_rank ? rank - low_rank : 0;
      return low_rank + (offset + t) % group;
    };

    for (int t = 0; t < max_group; ++t) {
      comm.trace_mark("B3 ring step " + std::to_string(t));
      const int current = shard_at(t);
      const int next = shard_at(t + 1);

      if (next >= 0) window.prefetch(next, t);

      if (current == rank) {
        // Own shard: its image, viewed in place.
        detail::search_resident(comm, engine, local, prepared, tops);
      } else if (current >= 0) {
        // The first remote shard is fetched blocking; later ones were
        // prefetched under the previous step.
        detail::search_resident(comm, engine,
                                unpack_shard(window.resident(current, t)),
                                prepared, tops);
      }

      window.settle();
      window.fence();
    }
    // Window close is collective (MPI_Win_free semantics).
    window.fence();

    // ---- report ----
    comm.trace_mark("B4 finalize");
    detail::publish_hits(comm, engine, tops, all_hits, block.begin);
  });

  AlgorithmBResult result;
  result.candidates = report.sum_counter("candidates");
  double sort_max = 0.0;
  double shards_sum = 0.0;
  for (const auto& r : report.ranks) {
    auto it = r.counters.find("sort_us");
    if (it != r.counters.end())
      sort_max = std::max(sort_max, static_cast<double>(it->second) * 1e-6);
    auto sv = r.counters.find("shards_visited");
    if (sv != r.counters.end()) shards_sum += static_cast<double>(sv->second);
  }
  result.max_sort_seconds = sort_max;
  result.mean_shards_visited = shards_sum / static_cast<double>(p);
  result.report = std::move(report);
  result.hits = std::move(all_hits);
  return result;
}

}  // namespace msp
