// Multi-batch ring transport for the online query service, over a
// mass-banded candidate-record shard layout.
//
// Algorithm A rotates the sharded database once per query *set*: a batch
// costs a full p-step rotation even when it holds a handful of spectra, so
// batch-at-a-time dispatch pays the per-batch communication floor on every
// batch. The service ring instead rotates *continuously*: one global step
// counter s advances whenever any batch is in flight, rank i scores shard
// (i + s) mod p at step s, and every admitted batch is scored against the
// current shard of the same pass — one shard fetch and one fence per step
// no matter how many batches ride it. A batch admitted at the boundary
// before step s has seen all p shards after step s + p − 1 and publishes at
// that boundary (the incremental top-τ merge makes the result identical to
// a one-shot search regardless of shard order).
//
// Shard layout (the mass-routing tentpole): instead of rotating raw
// database chunks, the service applies Algorithm B's machinery to the
// *candidates* — at construction every rank enumerates its chunk's
// candidate records inside the stream's query-mass envelope and a parallel
// counting sort redistributes them so rank j holds the j-th contiguous
// mass band of the global record array (core/candidate_record.hpp). Mass
// bands make routing possible: a query's ±δ window overlaps O(1) bands, so
// with the exchanged per-band histograms (core/shard_map.hpp) most
// (block, shard) pairs are *provably* empty and the ring step is skipped at
// a constant decision cost, while a visited step fetches only the byte
// range the histogram's prefix sums bound instead of a whole shard. With
// routing off the same bands are fetched whole, one per step, recovering
// the unrouted continuous-ring baseline. Hits are bit-identical across all
// of it. The layout is far from communication-optimal, though: every
// candidate travels as a 104-byte record carrying its peptide and protein
// id, and a visited step fetches its block's whole envelope of the band,
// so perfbench's sched-mix (p = 4, seed 1, traced) moves 9.1 GB of
// simulated traffic (simmpi.bytes_moved) for a 4,000-protein database.
//
// Determinism without control messages: the fence at the end of every step
// equalizes all ranks' virtual clocks, so any control decision taken at a
// step boundary from globally known inputs (the arrival schedule, the fault
// schedule, the exchanged shard mass map, published state) is computed
// identically by every rank. The serving layer (src/serve) exploits that by
// replicating its controller per rank; this class's step() returns the
// fence-aligned boundary time the controllers must use as "now".
//
// Fault compatibility (reusing the PR-1 recovery machinery): crash steps in
// the run's FaultModel index *service ring steps*. A crashing rank becomes
// a fail-stop zombie that keeps matching fences; its blocks of every
// in-flight batch are lost and the orphaned query ids are returned from
// step() so the serving layer re-admits them (they re-enter admission, get
// re-batched, and are re-scored from scratch — same hits, later). Bands
// stay reachable through the ring-successor replica of the
// detail::ShardWindow Algorithm A fetches through too — the replica holds
// the same bytes at the same offsets, so partial fetches redirect
// unchanged. The same window owns the unrouted ring's D_comp/D_recv double
// buffer.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/candidate_record.hpp"
#include "core/hit.hpp"
#include "core/partition.hpp"
#include "core/rank_steps.hpp"
#include "core/search_engine.hpp"
#include "core/shard_map.hpp"
#include "scoring/incremental_topk.hpp"
#include "simmpi/comm.hpp"

namespace msp {

/// Default histogram bucket width for the serve ring's band exchange. Bands
/// are contiguous in mass, so the grid only has to resolve *where inside
/// its band* a window falls — a much coarser question than Algorithm A's
/// per-candidate occupancy map answers. 0.25 Da keeps each
/// exchanged histogram to a few KB while bounding partial-fetch overshoot
/// to a fraction of a dalton per side.
inline constexpr double kServeRouteBucketDa = 0.25;

/// One closed batch handed to the ring: ids into the service's global query
/// stream (not necessarily contiguous — shed gaps and crash re-admissions
/// fragment the stream).
struct ServiceBatch {
  std::size_t id = 0;
  std::vector<std::size_t> query_ids;
};

/// One batch leaving the ring, with the router's audit trail: how many of
/// its (member rank, shard) scoring slots the mass router visited vs
/// proved empty and skipped. Counted over members with nonempty blocks,
/// from globally known inputs — identical on every rank.
struct PublishedBatch {
  std::size_t batch_id = 0;
  /// Query ids actually published (ids orphaned by crashes excluded).
  std::vector<std::size_t> query_ids;
  std::uint64_t steps_visited = 0;
  std::uint64_t steps_skipped = 0;
};

/// What one ring step produced. Every field is a function of fence-aligned
/// state plus the globally known schedules, so all ranks (zombies included)
/// return identical outcomes — the lockstep contract the per-rank
/// controllers rely on.
struct ServiceStepOutcome {
  int step = 0;  ///< the step ordinal just executed
  /// Fence-aligned boundary time this step ended on (including the crash
  /// detection charge when a crash fired). Controllers must use this as
  /// "now" — a zombie's own clock lags the survivors'.
  double boundary_time = 0.0;
  /// Batches whose last shard was scored this step.
  std::vector<PublishedBatch> published;
  /// Query ids orphaned by ranks that crashed at this step; they must
  /// re-enter admission.
  std::vector<std::size_t> orphaned;
};

class RingService {
 public:
  /// Collective over `comm` (counting sort + window creation + barrier):
  /// loads the rank's chunk, enumerates its candidate records inside the
  /// stream's query-mass envelope, joins the parallel counting sort that
  /// leaves this rank holding one contiguous mass band, exposes the band's
  /// record bytes, pulls the ring predecessor's replica when the fault
  /// schedule has crashes, and aligns all clocks so the first boundary is
  /// shared. `all_hits` must have one slot per stream query; owners write
  /// disjoint slots at publication. With `mass_routing` on (the default)
  /// every rank also summarizes its band as a mass histogram at
  /// `route_bucket_da` resolution and joins a collective exchange of all p
  /// histograms; admitted batches are then routed only through bands whose
  /// histogram overlaps their query-mass windows, provably-empty ring steps
  /// are skipped at a constant routing-decision cost, and visited remote
  /// bands are fetched partially (only the matching record range). Hits are
  /// bit-identical either way.
  RingService(sim::Comm& comm, const std::string& fasta_image,
              std::span<const Spectrum> queries, const SearchEngine& engine,
              QueryHits& all_hits, bool mass_routing = true,
              double route_bucket_da = kServeRouteBucketDa);

  /// Admit a closed batch at the current boundary (before the next step()).
  /// Must be invoked with identical arguments on every rank. The batch's
  /// queries are block-partitioned over the ranks alive at this boundary;
  /// each member gathers and prepares its block (prep compute and memory
  /// are charged here; the next fence re-aligns the clocks).
  void admit(const ServiceBatch& batch);

  /// Advance the ring one step: make shard (rank + s) mod p resident —
  /// routed mode fetches only each needed flight's matching record range,
  /// unrouted mode fetches the whole band (blocking only after an idle gap;
  /// while batches keep the ring busy the previous step's masked prefetch
  /// already delivered it) — score every in-flight batch's local block
  /// against it, fence, then publish batches whose last shard this was.
  /// `prefetch_next` is the serving layer's hint that another step is
  /// likely; a wrong hint affects time, never results.
  ServiceStepOutcome step(bool prefetch_next);

  /// Remove an in-flight batch at the current boundary (before the next
  /// step()) and return its not-yet-orphaned query ids so the caller can
  /// re-queue them — an *induced recoverable fault* riding the same
  /// orphan/re-admit contract as a crash, so re-scoring from scratch keeps
  /// hits serial-exact by construction (the scheduler's preemption path).
  /// Must be invoked with identical arguments on every rank; the returned
  /// ids are a pure function of replicated flight state, so every rank
  /// computes the same list with no communication. Partial per-shard top-τ
  /// state is discarded; members release their block allocations.
  std::vector<std::size_t> preempt(std::size_t batch_id);

  std::size_t in_flight() const { return flights_.size(); }
  int steps_done() const { return step_; }

  /// Collective teardown (window close). Every rank, zombies included,
  /// must call it after the last step.
  void finish();

 private:
  /// Per-rank state of one batch riding the ring.
  struct Flight {
    std::size_t batch_id = 0;
    std::vector<std::size_t> ids;  ///< batch query ids (global stream)
    std::vector<int> ranks;        ///< members: ranks alive at admit
    int first_step = 0;            ///< first ring step that scores it
    std::vector<std::size_t> orphaned;  ///< ids lost to crashes (all ranks)
    /// Router verdict per shard for THIS rank's block: 0 = provably no
    /// candidates, skip; 1 = must score. All-ones when routing is off or
    /// the rank holds no block.
    std::vector<std::uint8_t> my_routed;
    /// Batch-wide router audit (over all members with nonempty blocks),
    /// computed from global inputs — identical on every rank.
    std::uint64_t steps_visited = 0;
    std::uint64_t steps_skipped = 0;
    // This rank's block (empty when not a member):
    QueryRange block;                   ///< range into `ids`
    PreparedQueries prepared;
    /// The block's query-mass window [min−δ, max+δ] — what partial fetches
    /// of a visited band are clipped to.
    double fetch_lo = 0.0;
    double fetch_hi = 0.0;
    std::vector<IncrementalTopK<Hit>> tops;  ///< one per block query
    std::size_t alloc_bytes = 0;
  };

  /// Routed visit: blocking-fetch `shard`'s records matching `flight`'s
  /// query window and return the validated view to score (the whole
  /// resident band for the local shard).
  std::span<const CandidateRecord> resident_records(int shard, int at_step,
                                                    const Flight& flight);
  /// Score `flight`'s block against `records` of `shard` and absorb the
  /// per-shard top-τ lists.
  void score(Flight& flight, int shard,
             std::span<const CandidateRecord> records);

  sim::Comm& comm_;
  std::span<const Spectrum> queries_;
  const SearchEngine& engine_;
  QueryHits& all_hits_;
  bool routing_ = true;
  double route_bucket_da_ = kServeRouteBucketDa;
  ShardMassMap shard_map_;  ///< every band's histogram; empty unless routing_

  int p_ = 0;
  int rank_ = 0;
  int my_crash_step_ = -1;

  std::vector<CandidateRecord> band_;  ///< this rank's mass band (sorted)
  /// Exposes band_'s raw bytes (plus the successor replica under crashes).
  std::optional<detail::ShardWindow> window_;

  int step_ = 0;
  std::vector<Flight> flights_;
};

}  // namespace msp
