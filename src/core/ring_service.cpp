#include "core/ring_service.hpp"

#include <algorithm>
#include <climits>

#include "util/error.hpp"

namespace msp {

RingService::RingService(sim::Comm& comm, const std::string& fasta_image,
                         std::span<const Spectrum> queries,
                         const SearchEngine& engine, QueryHits& all_hits,
                         bool mass_routing, double route_bucket_da)
    : comm_(comm),
      queries_(queries),
      engine_(engine),
      all_hits_(all_hits),
      routing_(mass_routing),
      route_bucket_da_(route_bucket_da),
      p_(comm.size()),
      rank_(comm.rank()) {
  const auto& cost = comm_.compute_model();
  const SearchConfig& config = engine_.config();
  MSP_CHECK_MSG(config.candidate_mode == CandidateMode::kPrefixSuffix,
                "the banded service ring implements the paper's "
                "prefix/suffix candidate rule");

  // Band construction: load the i-th chunk (Algorithm A's A1), enumerate
  // its candidate records inside the stream's query-mass envelope, and
  // counting-sort them across ranks so this rank ends up holding one
  // contiguous mass band of the global record array. Queries are NOT
  // prepared here — they arrive over virtual time and are prepared per
  // batch at admission; only their (globally known) precursor masses bound
  // the enumeration, identically on every rank.
  comm_.trace_mark("serve setup");
  ProteinDatabase local_db = detail::load_rank_chunk(comm_, fasta_image);

  // Envelope widening: in open/PTM mode a hypothesis accepts candidate
  // masses in [m − window_below, m + window_above], so the band enumeration
  // (and every routing decision below) must widen by the same amounts or
  // a modified match could be provably-"skipped" into nonexistence. Narrow
  // mode degenerates to ±tolerance_da exactly as before.
  const MassEnvelope stream = detail::query_mass_envelope(engine_, queries_);
  std::vector<CandidateRecord> records =
      stream.lo <= stream.hi
          ? enumerate_candidate_records(local_db, config,
                                        stream.lo - stream.below,
                                        stream.hi + stream.above)
          : std::vector<CandidateRecord>{};
  local_db = ProteinDatabase{};
  // Same per-candidate charge as CandidateIndex::build — the enumeration
  // is the same mass walk; ion generation stays a scoring-time cost.
  comm_.clock().charge_compute(static_cast<double>(records.size()) *
                               cost.seconds_per_mz);

  band_ = sort_candidate_records_by_mass(comm_, std::move(records));
  // The band's record bytes are exposed, and with crashes scheduled
  // replicated on the ring successor for the rest of the service's
  // lifetime. Service ring steps are unbounded, so any scheduled step >= 0
  // fires (contrast Algorithm A, whose single rotation only reaches step
  // p − 1).
  window_.emplace(comm_,
                  std::span<const char>(
                      reinterpret_cast<const char*>(band_.data()),
                      band_.size() * sizeof(CandidateRecord)),
                  INT_MAX);
  my_crash_step_ = window_->crash_step(rank_);

  // The map exchange is collective and runs before any crash can fire,
  // like the replica pull: routing state is frozen global input from the
  // first step on. Bands are mass-contiguous, so a coarse bucket grid
  // keeps each payload to a few KB; the prefix sums over its counts are
  // what clip visited-band fetches to the matching record range, so the
  // counts must be exact (total() == band size ⇒ nothing saturated).
  if (routing_) {
    const MassHistogram local_histogram = MassHistogram::build(
        std::span<const CandidateRecord>(band_), route_bucket_da_);
    MSP_CHECK_MSG(local_histogram.total() == band_.size(),
                  "band histogram lost counts (saturated bucket?) — "
                  "record ranges would under-fetch");
    shard_map_ = ShardMassMap::exchange(comm_, local_histogram);
  }

  // Align every clock so the first service boundary is shared — all control
  // determinism derives from boundaries being fence-aligned.
  comm_.barrier();
}

std::span<const CandidateRecord> RingService::resident_records(
    int shard, int at_step, const Flight& flight) {
  if (shard == rank_) return {band_.data(), band_.size()};
  const auto [first, last] =
      shard_map_.histogram(shard).record_range(flight.fetch_lo,
                                               flight.fetch_hi);
  if (first >= last) return {};
  // The replica holds the same bytes at the same offsets, so a range
  // fetch redirects to it unchanged.
  return decode_candidate_records(
      window_->fetch_range(
          shard, at_step,
          static_cast<std::size_t>(first) * sizeof(CandidateRecord),
          static_cast<std::size_t>(last - first) * sizeof(CandidateRecord)),
      "ring band");
}

void RingService::score(Flight& flight, int shard,
                        std::span<const CandidateRecord> records) {
  std::vector<TopK<Hit>> shard_tops = engine_.make_tops(flight.block.count());
  charge_kernel(comm_,
                engine_.search_records(records, flight.prepared, shard_tops));
  for (std::size_t q = 0; q < flight.block.count(); ++q)
    flight.tops[q].absorb(static_cast<std::size_t>(shard), shard_tops[q]);
}

void RingService::admit(const ServiceBatch& batch) {
  const auto& cost = comm_.compute_model();
  Flight flight;
  flight.batch_id = batch.id;
  flight.ids = batch.query_ids;
  flight.first_step = step_;
  // Members: ranks alive through this boundary. A rank whose crash fires at
  // the upcoming step would score nothing, so it is excluded up front; a
  // rank dying later mid-flight is included and its block is orphaned when
  // the crash fires.
  for (int r = 0; r < p_; ++r)
    if (!window_->dead_at(r, step_)) flight.ranks.push_back(r);
  MSP_CHECK_MSG(!flight.ranks.empty(), "service batch with no live ranks");

  // Mass routing: every rank computes the full (member, shard) routing
  // matrix from globally known inputs — the admitted ids, the member list,
  // and the exchanged shard mass map — so the batch-wide audit counters
  // agree everywhere and this rank's own row needs no communication. The
  // map answers conservatively: a 0 is a proof the member's block matches
  // nothing in that shard at the engine's tolerance.
  // Unrouted, every member with a block visits all p shards, which keeps
  // the audit columns meaningful (skip ratio 0).
  flight.my_routed.assign(static_cast<std::size_t>(p_), 1);
  std::vector<double> member_masses;
  for (std::size_t m = 0; m < flight.ranks.size(); ++m) {
    const QueryRange member_block =
        query_block(flight.ids.size(), static_cast<int>(m),
                    static_cast<int>(flight.ranks.size()));
    if (member_block.count() == 0) continue;
    if (!routing_) {
      flight.steps_visited += static_cast<std::uint64_t>(p_);
      continue;
    }
    member_masses.clear();
    for (std::size_t i = member_block.begin; i < member_block.end; ++i) {
      MSP_CHECK_MSG(flight.ids[i] < queries_.size(),
                    "service batch query id out of range");
      for (const double mass :
           engine_.hypothesis_masses(queries_[flight.ids[i]]))
        member_masses.push_back(mass);
    }
    std::vector<std::uint8_t> verdict =
        shard_map_.route(member_masses, engine_.config().window_below(),
                         engine_.config().window_above());
    const auto visited = static_cast<std::uint64_t>(
        std::count(verdict.begin(), verdict.end(), std::uint8_t{1}));
    flight.steps_visited += visited;
    flight.steps_skipped += static_cast<std::uint64_t>(p_) - visited;
    if (flight.ranks[m] == rank_) flight.my_routed = std::move(verdict);
  }
  if (routing_)
    comm_.clock().charge_compute(static_cast<double>(flight.ranks.size()) *
                                 static_cast<double>(p_) *
                                 cost.seconds_per_route_check);

  const auto member =
      std::find(flight.ranks.begin(), flight.ranks.end(), rank_);
  if (member != flight.ranks.end()) {
    const int index = static_cast<int>(member - flight.ranks.begin());
    flight.block = query_block(flight.ids.size(), index,
                               static_cast<int>(flight.ranks.size()));
    if (flight.block.count() > 0) {
      std::vector<Spectrum> gathered;
      gathered.reserve(flight.block.count());
      for (std::size_t i = flight.block.begin; i < flight.block.end; ++i) {
        MSP_CHECK_MSG(flight.ids[i] < queries_.size(),
                      "service batch query id out of range");
        gathered.push_back(queries_[flight.ids[i]]);
      }
      flight.alloc_bytes = detail::charge_query_block(comm_, gathered);
      flight.prepared = engine_.prepare(gathered);
      comm_.clock().charge_compute(static_cast<double>(gathered.size()) *
                                   cost.seconds_per_query_prep);
      // The block's query-mass window: visited-band partial fetches are
      // clipped to it (the scoring merge-join re-applies the exact
      // per-query predicates, so over-fetch is only a time cost).
      flight.fetch_lo =
          flight.prepared.min_mass() - engine_.config().window_below();
      flight.fetch_hi =
          flight.prepared.max_mass() + engine_.config().window_above();
      flight.tops.reserve(flight.block.count());
      for (std::size_t q = 0; q < flight.block.count(); ++q)
        flight.tops.emplace_back(engine_.config().tau,
                                 static_cast<std::size_t>(p_));
      // Shards the router proved empty are recorded as skipped up front:
      // completion accounting stays exact while step() never touches them.
      for (int shard = 0; shard < p_; ++shard)
        if (!flight.my_routed[static_cast<std::size_t>(shard)])
          for (IncrementalTopK<Hit>& top : flight.tops)
            top.skip(static_cast<std::size_t>(shard));
    }
    comm_.trace_serve(sim::SpanKind::kServeDispatch,
                      "batch " + std::to_string(batch.id) + ": " +
                          std::to_string(flight.ids.size()) + " queries over " +
                          std::to_string(flight.ranks.size()) + " ranks");
  }
  flights_.push_back(std::move(flight));
}

ServiceStepOutcome RingService::step(bool prefetch_next) {
  const auto& cost = comm_.compute_model();
  const int s = step_;
  comm_.trace_mark("serve step " + std::to_string(s));
  const bool dead = my_crash_step_ >= 0 && s >= my_crash_step_;
  if (s == my_crash_step_)
    comm_.mark_crashed("serve step " + std::to_string(s));

  if (!dead) {
    const int shard = (rank_ + s) % p_;
    // The router's verdict for this step on this rank: the band must be
    // visited when any in-flight block may hold a candidate in it. A pure
    // function of admit-time state, so reruns and thread counts agree.
    bool need_shard = !routing_;
    if (routing_)
      for (const Flight& flight : flights_)
        if (flight.block.count() > 0 &&
            flight.my_routed[static_cast<std::size_t>(shard)])
          need_shard = true;

    if (!need_shard) {
      // Routed-away step: the constant decision cost only — no band
      // fetch, no decode, no scoring. The fence below still runs, so the
      // lockstep boundary contract is untouched.
      comm_.clock().charge_compute(cost.seconds_per_route_check);
      comm_.bump("route_steps_skipped", 1);
      comm_.trace_serve(sim::SpanKind::kServeRouteSkip,
                        "step " + std::to_string(s) + ": shard " +
                            std::to_string(shard) + " routed away");
    } else if (routing_) {
      comm_.clock().charge_compute(cost.seconds_per_route_check);
      comm_.bump("route_steps_visited", 1);
      // Routed visit: each needed flight fetches only its matching record
      // range of the band (histogram prefix sums bound it), scores it, and
      // moves on — a few KB per flight instead of the whole band, so no
      // masked prefetch chain is worth its buffer here.
      for (Flight& flight : flights_) {
        if (flight.block.count() == 0 ||
            !flight.my_routed[static_cast<std::size_t>(shard)])
          continue;  // admit() already recorded the skip in its tops
        score(flight, shard, resident_records(shard, s, flight));
      }
    } else {
      // Unrouted visit: make the whole band resident. While the ring stays
      // busy the previous step's prefetch already delivered it; after an
      // idle gap or a declined prefetch hint, resident() fetches it
      // blocking — fully exposed, exactly the cost the masked path avoids.
      const std::span<const CandidateRecord> resident =
          shard == rank_
              ? std::span<const CandidateRecord>(band_.data(), band_.size())
              : decode_candidate_records(window_->resident(shard, s),
                                         "ring band");

      // Masked prefetch of the next step's band under this step's scoring
      // (Algorithm A's A2 pattern, amortized over every in-flight batch).
      // The ring knows a next step is coming whenever a flight outlives
      // this one; the hint covers dispatches only the serving layer can
      // foresee. The step counter alone decides which shard each step
      // scores, so a prefetched band is never the wrong one — it is
      // exactly step s + 1's.
      bool continues = prefetch_next;
      for (const Flight& flight : flights_)
        if (s < flight.first_step + p_ - 1) continues = true;
      if (continues) window_->prefetch((rank_ + s + 1) % p_, s);

      for (Flight& flight : flights_)
        if (flight.block.count() > 0) score(flight, shard, resident);

      window_->settle();
    }
  }
  // Every rank — zombies included — attends the fence: this is both the
  // window epoch and the boundary that re-aligns all clocks, the invariant
  // the replicated controllers live on.
  window_->fence();

  ServiceStepOutcome out;
  out.step = s;

  // Crash boundary: orphan the dead ranks' blocks of every older flight and
  // charge the survivors the (omniscient, deterministic) detection timeout.
  std::vector<int> died;
  for (int r = 0; r < p_; ++r)
    if (window_->crash_step(r) == s) died.push_back(r);
  if (!died.empty()) {
    for (Flight& flight : flights_) {
      for (const int d : died) {
        const auto member =
            std::find(flight.ranks.begin(), flight.ranks.end(), d);
        if (member == flight.ranks.end()) continue;
        const int index = static_cast<int>(member - flight.ranks.begin());
        const QueryRange block = query_block(
            flight.ids.size(), index, static_cast<int>(flight.ranks.size()));
        for (std::size_t i = block.begin; i < block.end; ++i) {
          flight.orphaned.push_back(flight.ids[i]);
          out.orphaned.push_back(flight.ids[i]);
        }
      }
    }
    if (!dead) {
      comm_.charge_recovery(comm_.faults().crash_detection_timeout_s,
                            "declared " + std::to_string(died.size()) +
                                " rank(s) dead at serve step " +
                                std::to_string(s));
    }
  }
  // The shared boundary time: post-fence clocks are equal on every rank;
  // zombies add the detection charge they did not pay.
  out.boundary_time = comm_.clock().now();
  if (!died.empty() && dead)
    out.boundary_time += comm_.faults().crash_detection_timeout_s;

  // Publish flights whose last shard this step scored. Owners report their
  // block's hits (charged as output I/O, after the boundary — the next
  // fence absorbs the imbalance, as with every per-rank cost).
  for (auto it = flights_.begin(); it != flights_.end();) {
    Flight& flight = *it;
    if (s != flight.first_step + p_ - 1) {
      ++it;
      continue;
    }
    std::vector<std::size_t> published;
    published.reserve(flight.ids.size());
    for (const std::size_t id : flight.ids)
      if (std::find(flight.orphaned.begin(), flight.orphaned.end(), id) ==
          flight.orphaned.end())
        published.push_back(id);
    if (!dead) {
      comm_.trace_serve(sim::SpanKind::kServePublish,
                        "batch " + std::to_string(flight.batch_id) +
                            " published (" + std::to_string(published.size()) +
                            " queries)");
      if (flight.block.count() > 0) {
        std::size_t reported = 0;
        for (std::size_t q = 0; q < flight.block.count(); ++q) {
          std::vector<Hit> hits = flight.tops[q].finalize();
          reported += hits.size();
          all_hits_[flight.ids[flight.block.begin + q]] = std::move(hits);
        }
        comm_.clock().charge_io(static_cast<double>(reported) *
                                cost.seconds_per_hit_output);
        comm_.bump("hits_reported", reported);
        comm_.release_alloc(flight.alloc_bytes);
      }
    }
    PublishedBatch record;
    record.batch_id = flight.batch_id;
    record.query_ids = std::move(published);
    record.steps_visited = flight.steps_visited;
    record.steps_skipped = flight.steps_skipped;
    out.published.push_back(std::move(record));
    it = flights_.erase(it);
  }

  ++step_;
  return out;
}

std::vector<std::size_t> RingService::preempt(std::size_t batch_id) {
  const auto it =
      std::find_if(flights_.begin(), flights_.end(), [&](const Flight& f) {
        return f.batch_id == batch_id;
      });
  MSP_CHECK_MSG(it != flights_.end(), "preempting a batch not in flight");
  Flight& flight = *it;
  // Everything not already orphaned by a crash goes back to the caller;
  // crash orphans were returned from step() and re-queued there — returning
  // them again would score them twice.
  std::vector<std::size_t> requeue;
  requeue.reserve(flight.ids.size());
  for (const std::size_t id : flight.ids)
    if (std::find(flight.orphaned.begin(), flight.orphaned.end(), id) ==
        flight.orphaned.end())
      requeue.push_back(id);
  const bool dead = my_crash_step_ >= 0 && step_ > my_crash_step_;
  if (!dead && flight.block.count() > 0) comm_.release_alloc(flight.alloc_bytes);
  flights_.erase(it);
  return requeue;
}

void RingService::finish() {
  MSP_CHECK_MSG(flights_.empty(), "service finished with batches in flight");
  window_->fence();
  window_->fence_replica();
}

}  // namespace msp
