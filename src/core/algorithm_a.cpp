#include "core/algorithm_a.hpp"

#include <algorithm>
#include <optional>

#include "core/packdb.hpp"
#include "core/partition.hpp"
#include "core/ring_search.hpp"
#include "core/search_engine.hpp"
#include "scoring/top_hits.hpp"
#include "simmpi/comm.hpp"
#include "util/error.hpp"

namespace msp {
namespace detail {
namespace {

/// Rough per-query memory footprint (peak list + binned vector).
std::size_t query_bytes(const Spectrum& spectrum) {
  return spectrum.peaks().size() * sizeof(Peak) + 4096;
}

}  // namespace

void ring_search_body(sim::Comm& comm, const std::string& fasta_image,
                      const RingQuerySet& query_set, const SearchEngine& engine,
                      const AlgorithmAOptions& options, QueryHits& all_hits) {
  const int p = comm.size();
  const int rank = comm.rank();
  const auto& cost = comm.compute_model();
  const sim::FaultModel& faults = comm.faults();

  // Crash schedule in group-rank space. A scheduled step outside [0, p)
  // never fires on this communicator (it names a step of a larger ring).
  auto crash_step_of = [&](int r) {
    const int step = faults.crash_step(comm.global_rank_of(r));
    return step >= 0 && step < p ? step : -1;
  };
  const int my_crash_step = crash_step_of(rank);
  const bool fault_tolerant = faults.has_crashes();
  if (fault_tolerant) {
    int survivors = 0;
    for (int r = 0; r < p; ++r)
      if (crash_step_of(r) < 0) ++survivors;
    if (survivors == 0)
      throw FaultUnrecoverable(
          "fault schedule kills every rank of the ring — nobody left to "
          "recover the query blocks");
  }

  // ---- A1: load the rank's database chunk and prepare its query block ----
  comm.trace_mark("A1 load+prepare");
  ProteinDatabase local_db = load_database_shard(fasta_image, rank, p);
  comm.clock().charge_io(static_cast<double>(local_db.total_residues()) *
                         cost.seconds_per_residue_load);

  const QueryRange block = query_block(query_set.queries.size(), rank, p);
  const std::span<const Spectrum> local_queries(
      query_set.queries.data() + block.begin, block.count());

  std::size_t local_query_bytes = 0;
  for (const Spectrum& q : local_queries) local_query_bytes += query_bytes(q);
  comm.charge_alloc(local_query_bytes);
  const PreparedQueries prepared = engine.prepare(local_queries);
  comm.clock().charge_compute(static_cast<double>(local_queries.size()) *
                              cost.seconds_per_query_prep);

  std::vector<TopK<Hit>> tops = engine.make_tops(local_queries.size());

  // ---- A2: ring rotation with masked one-sided transport ----
  // The shard's candidate index is built once here and ships with the shard
  // bytes, so all p ranks the rotation delivers it to merge-join one
  // enumeration instead of re-walking the proteins. Each entry costs one
  // fragment-mass computation, the same unit as Algorithm B's m/z sort.
  const CandidateIndex local_index =
      CandidateIndex::build(local_db, engine.config());
  comm.clock().charge_compute(static_cast<double>(local_index.size()) *
                              cost.seconds_per_mz);
  // Open search ships a fragment-ion index next to the candidate index so
  // every rank the rotation delivers the shard to gets indexed lookups
  // instead of exhaustive enumeration. Build cost is one mass computation
  // per posting (= per theoretical ion), the same unit as the index build.
  const bool ship_fragment =
      engine.config().open_search() &&
      engine.config().candidate_source != CandidateSourceKind::kMassWindow;
  FragmentIndex local_fragment;
  if (ship_fragment) {
    local_fragment =
        FragmentIndex::build(local_db, local_index, engine.config().bin_width);
    comm.clock().charge_compute(
        static_cast<double>(local_fragment.posting_count()) *
        cost.seconds_per_mz);
  }
  // Mass routing (shared with the serving ring): the shard's bucketed mass
  // histogram rides in the pack trailer, and a collective exchange leaves
  // every rank holding the identical global shard mass map before the
  // rotation starts — routing decisions are then pure functions of frozen
  // global inputs.
  ShardMassMap shard_map;
  std::vector<char> local_pack;
  if (options.mass_routing) {
    const MassHistogram local_histogram = MassHistogram::build(local_index);
    local_pack = ship_fragment
                     ? pack_database(local_db, local_index, local_histogram,
                                     local_fragment)
                     : pack_database(local_db, local_index, local_histogram);
    shard_map = ShardMassMap::exchange(comm, local_histogram);
  } else {
    local_pack = ship_fragment
                     ? pack_database(local_db, local_index, local_fragment)
                     : pack_database(local_db, local_index);
  }
  comm.charge_alloc(local_pack.size());  // D_local (window)
  sim::Window window(comm, local_pack);

  std::size_t max_shard = 0;
  for (int r = 0; r < p; ++r)
    max_shard = std::max(max_shard, window.shard_size(r));
  comm.charge_alloc(2 * max_shard);  // D_recv + D_comp

  std::vector<char> comp_buffer = local_pack;  // D_comp starts as own shard
  std::vector<char> recv_buffer;               // D_recv
  const int pulls = comm.network().concurrent_pulls(p);

  // Shard replication for crash recovery: every rank pulls its ring
  // predecessor's shard before the rotation starts (so the copy exists
  // before any crash can fire) and exposes it through a second window.
  // A dead rank's shard then stays reachable at its successor.
  std::vector<char> replica;
  std::optional<sim::Window> replica_window;
  if (fault_tolerant) {
    const int predecessor = (rank + p - 1) % p;
    sim::RmaRequest pull = window.rget(predecessor, replica, pulls);
    window.wait(pull);
    comm.charge_alloc(replica.size());
    replica_window.emplace(
        comm, std::span<const char>(replica.data(), replica.size()));
  }

  // One-sided fetch of shard `owner` issued at ring step `at_step`,
  // rerouted to the replica when the owner is already dead at issue time
  // (crashes are step-boundary events: a transfer issued before the
  // owner's crash step completes normally).
  struct ShardFetch {
    sim::RmaRequest request;
    sim::Window* window = nullptr;
  };
  auto owner_dead_at = [&](int owner, int at_step) {
    const int step = crash_step_of(owner);
    return step >= 0 && step <= at_step;
  };
  auto fetch_shard = [&](int owner, int at_step,
                         std::vector<char>& dest) -> ShardFetch {
    if (!owner_dead_at(owner, at_step))
      return ShardFetch{window.rget(owner, dest, pulls), &window};
    const int holder = (owner + 1) % p;
    if (owner_dead_at(holder, at_step))
      throw FaultUnrecoverable("shard " + std::to_string(owner) +
                               ": owner and replica holder " +
                               std::to_string(holder) + " both crashed");
    return ShardFetch{replica_window->rget(holder, dest, pulls),
                      &*replica_window};
  };

  // Router verdict per shard for this rank's block, fixed for the whole
  // rotation (the block and the map are both frozen before step 0). A 0 is
  // a proof the block matches nothing in that shard at this tolerance —
  // skipping is an optimization, never a correctness decision.
  std::vector<std::uint8_t> shard_needed(static_cast<std::size_t>(p), 1);
  if (options.mass_routing && shard_map.routes()) {
    std::uint64_t visited = 0;
    std::uint64_t skipped = 0;
    for (int j = 0; j < p; ++j) {
      // Open search widens the scoring window asymmetrically (PTM deltas
      // shift the observed mass); routing must widen identically or a skip
      // could hide a modified match.
      const bool need =
          shard_map.needed(j, std::span<const double>(prepared.sorted_masses),
                           engine.config().window_below(),
                           engine.config().window_above());
      shard_needed[static_cast<std::size_t>(j)] = need ? 1 : 0;
      if (need)
        ++visited;
      else
        ++skipped;
    }
    comm.clock().charge_compute(static_cast<double>(p) *
                                cost.seconds_per_route_check);
    comm.bump("route_steps_visited", visited);
    comm.bump("route_steps_skipped", skipped);
  }

  int comp_shard = rank;  // shard image resident in comp_buffer
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

    const int next = (rank + s + 1) % p;

    ShardFetch prefetch;
    if (options.mask) {
      // Non-blocking request for the next *visited* iteration's shard
      // (A2's masking): issued before this iteration's computation. A
      // shard the router will skip is never worth fetching.
      if (s + 1 < p && shard_needed[static_cast<std::size_t>(next)])
        prefetch = fetch_shard(next, s, recv_buffer);
    }
    if (current != rank && comp_shard != current) {
      // Nothing delivered this shard under a previous step's mask (the
      // unmasked variant, or the router skipped the steps in between):
      // fetch it blocking, fully exposing the transfer.
      ShardFetch fetch = fetch_shard(current, s, comp_buffer);
      fetch.window->wait(fetch.request);
      comp_shard = current;
    }

    PackedShard fetched;
    if (current != rank) fetched = unpack_shard(comp_buffer);
    const ProteinDatabase& shard_db = current == rank ? local_db : fetched.db;
    const CandidateIndex* shard_index =
        current == rank ? &local_index
                        : (fetched.has_index ? &fetched.index : nullptr);
    // A fetched legacy pack carries no fragment record → null → the kernel
    // falls back to exhaustive open enumeration for that shard.
    const FragmentIndex* shard_fragment =
        current == rank ? (ship_fragment ? &local_fragment : nullptr)
                        : (fetched.has_fragment ? &fetched.fragment : nullptr);
    const ShardSearchStats stats = engine.search_shard(
        shard_db, prepared, tops, nullptr, shard_index, shard_fragment);
    charge_kernel(comm, stats);

    if (options.mask && prefetch.request.active) {
      prefetch.window->wait(prefetch.request);
      std::swap(comp_buffer, recv_buffer);
      comp_shard = next;
    }
    if (options.fence_per_iteration) window.fence();
  }
  // Window close is collective (MPI_Win_free): no rank may free its
  // exposed shard while another can still read it.
  window.fence();

  // ---- A2': survivors adopt the dead ranks' query blocks ----
  if (fault_tolerant) {
    std::vector<int> alive;
    std::vector<int> dead;
    for (int r = 0; r < p; ++r)
      (crash_step_of(r) < 0 ? alive : dead).push_back(r);

    if (!dead.empty() && my_crash_step < 0) {
      comm.trace_mark("A2' recovery re-search");
      // Omniscient deterministic failure detection: the schedule is known
      // to every rank, so survivors charge the detection timeout once
      // instead of simulating a heartbeat protocol.
      comm.charge_recovery(faults.crash_detection_timeout_s,
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

        std::size_t orphan_bytes = 0;
        for (const Spectrum& q : orphans) orphan_bytes += query_bytes(q);
        comm.charge_alloc(orphan_bytes);
        const PreparedQueries orphan_prepared = engine.prepare(orphans);
        comm.clock().charge_compute(static_cast<double>(orphans.size()) *
                                    cost.seconds_per_query_prep);
        std::vector<TopK<Hit>> orphan_tops = engine.make_tops(orphans.size());

        // The adopted block re-enters through the same router: shards that
        // provably hold nothing for the orphans are skipped at the constant
        // decision cost, exactly as in the main rotation.
        std::vector<std::uint8_t> orphan_needed(static_cast<std::size_t>(p),
                                                1);
        if (options.mass_routing && shard_map.routes()) {
          std::uint64_t visited = 0;
          std::uint64_t skipped = 0;
          for (int j = 0; j < p; ++j) {
            const bool need = shard_map.needed(
                j, std::span<const double>(orphan_prepared.sorted_masses),
                engine.config().window_below(), engine.config().window_above());
            orphan_needed[static_cast<std::size_t>(j)] = need ? 1 : 0;
            if (need)
              ++visited;
            else
              ++skipped;
          }
          comm.clock().charge_compute(static_cast<double>(p) *
                                      cost.seconds_per_route_check);
          comm.bump("route_steps_visited", visited);
          comm.bump("route_steps_skipped", skipped);
        }

        for (int shard = 0; shard < p; ++shard) {
          if (!orphan_needed[static_cast<std::size_t>(shard)]) {
            comm.clock().charge_compute(cost.seconds_per_route_check);
            continue;
          }
          PackedShard fetched;
          if (shard != rank) {
            ShardFetch fetch = fetch_shard(shard, p, recv_buffer);
            fetch.window->wait(fetch.request);
            fetched = unpack_shard(recv_buffer);
          }
          const ProteinDatabase& shard_db =
              shard == rank ? local_db : fetched.db;
          const CandidateIndex* shard_index =
              shard == rank ? &local_index
                            : (fetched.has_index ? &fetched.index : nullptr);
          const FragmentIndex* shard_fragment =
              shard == rank
                  ? (ship_fragment ? &local_fragment : nullptr)
                  : (fetched.has_fragment ? &fetched.fragment : nullptr);
          const ShardSearchStats stats =
              engine.search_shard(shard_db, orphan_prepared, orphan_tops,
                                  nullptr, shard_index, shard_fragment);
          charge_kernel(comm, stats);
        }

        QueryHits orphan_hits = engine.finalize(orphan_tops);
        if (engine.config().open_search()) {
          std::uint64_t misses = 0;
          for (const std::vector<Hit>& hits : orphan_hits)
            if (hits.empty()) ++misses;
          comm.bump("open_index_miss_queries", misses);
        }
        std::size_t reported = 0;
        for (std::size_t q = 0; q < orphan_hits.size(); ++q) {
          reported += orphan_hits[q].size();
          all_hits[query_set.output_offset + dead_block.begin + adopted.begin +
                   q] = std::move(orphan_hits[q]);
        }
        comm.clock().charge_io(static_cast<double>(reported) *
                               cost.seconds_per_hit_output);
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
    replica_window->fence();
  }

  // ---- A3: report the top-τ lists for the local queries ----
  comm.trace_mark("A3 finalize");
  if (my_crash_step < 0) {
    QueryHits local_hits = engine.finalize(tops);
    // Index-miss queries (no candidate cleared the vote gate anywhere) are
    // the de novo fallback lane's input; the counter lets callers size it.
    if (engine.config().open_search()) {
      std::uint64_t misses = 0;
      for (const std::vector<Hit>& hits : local_hits)
        if (hits.empty()) ++misses;
      comm.bump("open_index_miss_queries", misses);
    }
    std::size_t reported = 0;
    for (std::size_t q = 0; q < local_hits.size(); ++q) {
      reported += local_hits[q].size();
      all_hits[query_set.output_offset + block.begin + q] =
          std::move(local_hits[q]);
    }
    comm.clock().charge_io(static_cast<double>(reported) *
                           cost.seconds_per_hit_output);
    comm.bump("hits_reported", reported);
  }
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
    if (options.memory_budget_bytes != 0)
      comm.set_memory_budget(options.memory_budget_bytes);
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
