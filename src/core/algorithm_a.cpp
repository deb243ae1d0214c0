#include "core/algorithm_a.hpp"

#include <algorithm>

#include "core/packdb.hpp"
#include "core/partition.hpp"
#include "core/rank_steps.hpp"
#include "core/ring_search.hpp"
#include "core/search_engine.hpp"
#include "core/shard_map.hpp"
#include "scoring/top_hits.hpp"
#include "simmpi/comm.hpp"

namespace msp {
namespace detail {

void ring_search_body(sim::Comm& comm, const std::string& fasta_image,
                      const RingQuerySet& query_set, const SearchEngine& engine,
                      const AlgorithmAOptions& options, QueryHits& all_hits) {
  const int p = comm.size();
  const int rank = comm.rank();
  const auto& cost = comm.compute_model();
  const SearchConfig& config = engine.config();

  // ---- A1: load the rank's database chunk and prepare its query block ----
  comm.trace_mark("A1 load+prepare");
  ProteinDatabase local_db = load_rank_chunk(comm, fasta_image);

  const QueryRange block = query_block(query_set.queries.size(), rank, p);
  const std::span<const Spectrum> local_queries(
      query_set.queries.data() + block.begin, block.count());

  charge_query_block(comm, local_queries);
  const PreparedQueries prepared = engine.prepare(local_queries);
  comm.clock().charge_compute(static_cast<double>(local_queries.size()) *
                              cost.seconds_per_query_prep);

  std::vector<TopK<Hit>> tops = engine.make_tops(local_queries.size());

  // ---- A2: ring rotation with masked one-sided transport ----
  // The shard's candidate index (and, in open search, its fragment-ion
  // index) is built once here, straight into the shard image that ships,
  // so all p ranks the rotation delivers it to merge-join one enumeration
  // instead of re-walking the proteins. It is clipped to the envelope of
  // the whole query set, since every block — and every orphan a survivor
  // adopts — is searched against it. The image is D_local: the rank scores
  // its own shard through a view of it, like every fetched one, and keeps
  // no other copy of its proteins or indexes.
  const std::vector<char> local_pack = build_shard_image(
      comm, local_db, config, query_mass_envelope(engine, query_set.queries));
  local_db = ProteinDatabase{};
  const ShardView local = unpack_shard(local_pack);
  // The shard image carries exactly what its receivers score. Mass routing
  // (shared with the serving ring) travels separately: a collective
  // exchange of every shard's bucketed mass histogram leaves each rank
  // holding the identical global shard mass map before the rotation
  // starts, so routing decisions are pure functions of frozen global
  // inputs.
  const ShardMassMap shard_map =
      options.mass_routing
          ? ShardMassMap::exchange(comm, MassHistogram::build(local.entries))
          : ShardMassMap{};
  // D_local is exposed; with crashes scheduled, every shard is also copied
  // to its ring successor, so a dead rank's shard stays reachable there.
  ShardWindow window(comm, local_pack, p);
  const int my_crash_step = window.crash_step(rank);

  // Router verdict per shard for a query block, fixed for the whole
  // rotation (the block and the map are both frozen before step 0). A 0 is
  // a proof the block matches nothing in that shard at this tolerance —
  // skipping is an optimization, never a correctness decision. Open search
  // widens the scoring window asymmetrically (PTM deltas shift the
  // observed mass); routing widens identically or a skip could hide a
  // modified match.
  auto route = [&](const PreparedQueries& queries) {
    if (!options.mass_routing)
      return std::vector<std::uint8_t>(static_cast<std::size_t>(p), 1);
    std::vector<std::uint8_t> needed =
        shard_map.route(std::span<const double>(queries.sorted_masses),
                        config.window_below(), config.window_above());
    const auto visited = static_cast<std::uint64_t>(
        std::count(needed.begin(), needed.end(), std::uint8_t{1}));
    comm.clock().charge_compute(static_cast<double>(p) *
                                cost.seconds_per_route_check);
    comm.bump("route_steps_visited", visited);
    comm.bump("route_steps_skipped", static_cast<std::uint64_t>(p) - visited);
    return needed;
  };
  const std::vector<std::uint8_t> shard_needed = route(prepared);

  for (int s = 0; s < p; ++s) {
    comm.trace_mark("A2 ring step " + std::to_string(s));
    if (my_crash_step >= 0 && s >= my_crash_step) {
      if (s == my_crash_step)
        comm.mark_crashed("ring step " + std::to_string(s));
      // Fail-stop zombie: the simulated host is gone, but the thread keeps
      // matching the survivors' collectives so fence epochs and window
      // lifetimes stay aligned while they recover.
      if (options.fence_per_iteration) window.fence();
      continue;
    }

    const int current = (rank + s) % p;
    if (!shard_needed[static_cast<std::size_t>(current)]) {
      // Routed-away step: the constant decision cost only — no fetch, no
      // scoring. The per-iteration fence still runs (it is collective).
      comm.clock().charge_compute(cost.seconds_per_route_check);
      comm.trace_mark("A2 ring step " + std::to_string(s) + " routed skip");
      if (options.fence_per_iteration) window.fence();
      continue;
    }

    // Non-blocking request for the next *visited* iteration's shard (A2's
    // masking), issued before this iteration's computation. A shard the
    // router will skip is never worth fetching; after the last step the
    // successor is the rank's own shard, which the window never fetches.
    const int next = (rank + s + 1) % p;
    if (options.mask && shard_needed[static_cast<std::size_t>(next)])
      window.prefetch(next, s);

    // Unless a previous step's mask delivered a remote shard, resident()
    // fetches it blocking (the unmasked variant, or the router skipped the
    // steps in between), fully exposing the transfer. D_comp is scored
    // where it landed, before settle() swaps it out.
    if (current == rank)
      search_resident(comm, engine, local, prepared, tops);
    else
      search_resident(comm, engine, unpack_shard(window.resident(current, s)),
                      prepared, tops);

    window.settle();
    if (options.fence_per_iteration) window.fence();
  }
  // Window close is collective (MPI_Win_free): no rank may free its
  // exposed shard while another can still read it.
  window.fence();

  // ---- A2': survivors adopt the dead ranks' query blocks ----
  if (window.replicated()) {
    std::vector<int> alive;
    std::vector<int> dead;
    for (int r = 0; r < p; ++r)
      (window.crash_step(r) < 0 ? alive : dead).push_back(r);

    if (!dead.empty() && my_crash_step < 0) {
      comm.trace_mark("A2' recovery re-search");
      // Omniscient deterministic failure detection: the schedule is known
      // to every rank, so survivors charge the detection timeout once
      // instead of simulating a heartbeat protocol.
      comm.charge_recovery(comm.faults().crash_detection_timeout_s,
                           "declared " + std::to_string(dead.size()) +
                               " rank(s) dead");
      const double research_start = comm.clock().now();
      const int my_index = static_cast<int>(
          std::find(alive.begin(), alive.end(), rank) - alive.begin());
      std::uint64_t adopted_total = 0;

      for (const int d : dead) {
        const QueryRange dead_block =
            query_block(query_set.queries.size(), d, p);
        // Re-partition the orphaned block among the survivors; each
        // survivor re-searches its slice against all p shards.
        const QueryRange adopted = query_block(
            dead_block.count(), my_index, static_cast<int>(alive.size()));
        if (adopted.count() == 0) continue;
        const std::span<const Spectrum> orphans(
            query_set.queries.data() + dead_block.begin + adopted.begin,
            adopted.count());

        const std::size_t orphan_bytes = charge_query_block(comm, orphans);
        const PreparedQueries orphan_prepared = engine.prepare(orphans);
        comm.clock().charge_compute(static_cast<double>(orphans.size()) *
                                    cost.seconds_per_query_prep);
        std::vector<TopK<Hit>> orphan_tops = engine.make_tops(orphans.size());

        // The adopted block re-enters through the same router: shards that
        // provably hold nothing for the orphans are skipped at the constant
        // decision cost, exactly as in the main rotation.
        const std::vector<std::uint8_t> orphan_needed = route(orphan_prepared);
        for (int shard = 0; shard < p; ++shard) {
          if (!orphan_needed[static_cast<std::size_t>(shard)]) {
            comm.clock().charge_compute(cost.seconds_per_route_check);
            continue;
          }
          // A remote shard is always re-pulled (dead shards from their
          // replicas): the rotation's resident shard is never reused here.
          if (shard == rank)
            search_resident(comm, engine, local, orphan_prepared, orphan_tops);
          else
            search_resident(comm, engine, unpack_shard(window.fetch(shard, p)),
                            orphan_prepared, orphan_tops);
        }

        publish_hits(comm, engine, orphan_tops, all_hits,
                     query_set.output_offset + dead_block.begin +
                         adopted.begin);
        comm.release_alloc(orphan_bytes);
        adopted_total += adopted.count();
      }
      comm.bump("recovered_queries", adopted_total);
      comm.note_recovery_span(
          comm.clock().now() - research_start,
          "re-searched " + std::to_string(adopted_total) +
              " orphaned query(ies) against all shards");
    }
    // Replica windows close collectively once every survivor is done
    // re-pulling; zombies attend so their exposed buffers stay alive.
    window.fence_replica();
  }

  // ---- A3: report the top-τ lists for the local queries ----
  comm.trace_mark("A3 finalize");
  if (my_crash_step < 0)
    publish_hits(comm, engine, tops, all_hits,
                 query_set.output_offset + block.begin);
}

}  // namespace detail

ParallelRunResult run_algorithm_a(const sim::Runtime& runtime,
                                  const std::string& fasta_image,
                                  const std::vector<Spectrum>& queries,
                                  const SearchConfig& config,
                                  const AlgorithmAOptions& options) {
  const SearchEngine engine(config);

  // Per-query output slots; each query is owned by exactly one rank (its
  // block owner, or on a crash the surviving adopter), so the ranks write
  // disjoint elements (no synchronization needed beyond join).
  QueryHits all_hits(queries.size());

  sim::RunReport report = runtime.run([&](sim::Comm& comm) {
    detail::ring_search_body(
        comm, fasta_image,
        detail::RingQuerySet{
            std::span<const Spectrum>(queries.data(), queries.size()), 0},
        engine, options, all_hits);
  });

  ParallelRunResult result;
  result.candidates = report.sum_counter("candidates");
  result.report = std::move(report);
  result.hits = std::move(all_hits);
  return result;
}

}  // namespace msp
