// Comm: the per-rank handle of the simulated distributed-memory machine.
//
// The API mirrors the MPI subset the paper's implementation uses — barrier,
// Allreduce, Alltoallv, point-to-point send/recv (for the master–worker
// baseline), one-sided windows with non-blocking gets (Algorithm A/B's
// database transport) and communicator splitting (the sub-group hybrid of
// the paper's Discussion) — plus virtual-time and memory accounting, which
// is how the simulated cluster stands in for the real one (see DESIGN.md).
//
// Threading model: each rank is a thread; rank-local state (the Comm, the
// rank's buffers) is touched only by its own thread, and all cross-rank data
// movement goes through this class, whose collective operations establish
// the necessary happens-before edges with real synchronization.
//
// A split() sub-communicator is a second view of the same rank: it shares
// the rank's virtual clock, counters and memory accounting, but its
// collectives synchronize only the sub-group's members.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "simmpi/faults.hpp"
#include "simmpi/netmodel.hpp"
#include "simmpi/trace.hpp"
#include "simmpi/vclock.hpp"
#include "util/error.hpp"

namespace msp::sim {

namespace detail {
struct Shared;
struct CollectiveGroup;
struct RankState;
}  // namespace detail

namespace check {
class Checker;
struct TestBackdoor;
}  // namespace check

class Comm {
 public:
  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  /// Rank within THIS communicator (== global rank on the world comm).
  int rank() const { return group_rank_; }
  int size() const;
  /// Rank within the whole run (stable across split()).
  int global_rank() const { return global_rank_; }
  /// Global rank of this communicator's `group_rank` member.
  int global_rank_of(int group_rank) const;

  VirtualClock& clock();
  const VirtualClock& clock() const;
  const NetworkModel& network() const;
  const ComputeModel& compute_model() const;
  /// The run's fault schedule (empty by default); see faults.hpp. The
  /// schedule is known to every rank, which is what makes failure
  /// detection deterministic (no heartbeat protocol to model).
  const FaultModel& faults() const;

  /// MPI_Comm_split: collective over THIS communicator. Ranks passing equal
  /// `color` form a sub-communicator, ordered by their rank here. The
  /// returned Comm shares this rank's clock/accounting; it must not outlive
  /// the run.
  std::unique_ptr<Comm> split(int color);

  // ---- collectives (every rank of THIS communicator must participate) ----

  /// Fence-style synchronization: all clocks advance to the max entry time
  /// plus the modeled barrier cost. The wait shows up in sync_wait — this is
  /// where load imbalance becomes visible, as on the real machine.
  void barrier();

  double allreduce_max(double value);
  double allreduce_min(double value);
  std::uint64_t allreduce_sum(std::uint64_t value);
  /// Element-wise sum across ranks, in place (Algorithm B's global count
  /// array); all ranks must pass equal-length vectors.
  void allreduce_sum(std::vector<std::uint64_t>& values);

  /// Gather one POD value from every rank, returned in rank order.
  template <typename T>
  std::vector<T> allgather(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const void* const* slots = post_and_collect(&value);
    std::vector<T> out(static_cast<std::size_t>(size()));
    for (int r = 0; r < size(); ++r)
      out[static_cast<std::size_t>(r)] = *static_cast<const T*>(slots[r]);
    finish_collective(collective_cost(sizeof(T)));
    return out;
  }

  /// Personalized all-to-all over byte payloads: send[j] goes to rank j;
  /// returns what every rank sent to this one, in rank order. This is the
  /// MPI_Alltoallv of Algorithm B's counting-sort redistribution.
  std::vector<std::vector<char>> alltoallv(
      const std::vector<std::vector<char>>& send);

  /// One-to-all broadcast of a byte payload from `root` (group rank).
  std::vector<char> bcast(int root, const std::vector<char>& payload);

  // ---- point-to-point (master–worker baseline) ----

  struct Message {
    int source = -1;  ///< GROUP rank of the sender (-1 if outside the group)
    int tag = -1;
    std::vector<char> payload;
  };

  static constexpr int kAnySource = -1;
  static constexpr int kAnyTag = -1;

  /// Eager non-blocking send (buffered; the sender only pays latency).
  /// `destination` is a rank of this communicator.
  void send(int destination, int tag, std::vector<char> payload);
  /// Blocking receive; matches source/tag (kAnySource / kAnyTag wildcards).
  Message recv(int source = kAnySource, int tag = kAnyTag);

  // ---- memory accounting (the paper's 1 GB/process constraint) ----

  /// Record an allocation attributed to this rank's algorithmic state.
  /// Throws OutOfMemoryBudget if a budget is set and would be exceeded.
  void charge_alloc(std::size_t bytes);
  void release_alloc(std::size_t bytes);
  /// 0 disables the budget (default).
  void set_memory_budget(std::size_t bytes);
  std::size_t current_memory() const;
  std::size_t peak_memory() const;

  // ---- user counters (candidates evaluated, hits kept, ...) ----
  void bump(const std::string& name, std::uint64_t delta = 1);

  // ---- span tracing (Runtime::enable_tracing; see span.hpp) ----

  /// True when this run records span timelines.
  bool tracing() const;
  /// Drop an instant marker on this rank's clock lane at the current
  /// virtual time (ring iteration, batch, phase boundary). No-op when
  /// tracing is disabled; never advances the clock.
  void trace_mark(const std::string& label);
  /// Drop an instant control event on this rank's serve lane (lane 3) at
  /// the current virtual time. `kind` must be one of the kServe* marker
  /// kinds (admit/shed/dispatch/publish). No-op when tracing is disabled;
  /// never advances the clock.
  void trace_serve(SpanKind kind, const std::string& label);
  /// Drop an instant scheduler-decision event on this rank's sched lane
  /// (lane 4) at the current virtual time. `kind` must be one of the
  /// kSched* marker kinds (submit/start/backfill/preempt/complete).
  /// No-op when tracing is disabled; never advances the clock.
  void trace_sched(SpanKind kind, const std::string& label);

  // ---- fault bookkeeping (called by the algorithms' recovery paths) ----

  /// Record that this rank fail-stopped (its scheduled crash fired). The
  /// rank's thread keeps running as a "zombie" to match collectives.
  void mark_crashed(const std::string& detail);
  /// Charge `seconds` of recovery overhead (e.g. crash-detection timeout)
  /// to the virtual clock and record a recovery event.
  void charge_recovery(double seconds, const std::string& detail);
  /// Attribute `seconds` of already-charged work (re-search compute/IO) to
  /// recovery, without advancing the clock again.
  void note_recovery_span(double seconds, const std::string& detail);

  RankStats stats() const;

 private:
  friend class Runtime;
  friend class Window;
  friend struct check::TestBackdoor;

  Comm(detail::Shared& shared, std::shared_ptr<detail::CollectiveGroup> group,
       int group_rank);

  /// The run's happens-before checker; null unless checking is enabled.
  check::Checker* checker() const;

  /// Two-phase collective slot exchange. Phase 1: every rank posts `mine`
  /// and its entry time, then synchronizes; the returned array of all
  /// posted pointers (group order) is valid until finish_collective().
  /// `checked = false` (test backdoor only) hides the rendezvous from the
  /// happens-before checker.
  const void* const* post_and_collect(const void* mine, bool checked = true);
  /// Phase 2: advance the clock to max(entry)+cost and release the slots.
  void finish_collective(double cost, bool checked = true);
  double max_posted_entry() const;
  double collective_cost(std::size_t bytes) const;

  /// Consume this rank's scheduled transient transfer failures: for every
  /// failing attempt ordinal, pay retry_delay on the clock and record a
  /// retry event; then consume the ordinal of the succeeding attempt.
  /// No-op (and no ordinal is consumed) for ranks with no failure set.
  void pay_transfer_faults(const char* what);
  /// Straggler network slowdown of a (src, dst) transfer: max over the two
  /// endpoints' multipliers; exactly 1.0 when no straggler is scheduled.
  double fault_network_scale(int global_src, int global_dst) const;

  detail::Shared& shared_;
  std::shared_ptr<detail::CollectiveGroup> group_;
  int group_rank_;
  int global_rank_;
  detail::RankState& state_;
};

// ---- one-sided communication ----

/// Handle for a pending non-blocking get.
struct RmaRequest {
  double arrival_time = 0.0;  ///< virtual time the data is fully local
  double issue_cost = 0.0;    ///< modeled transfer duration (arrival − issue)
  bool active = false;

  // Destination-buffer snapshot for the lifetime check (Window-internal;
  // see the "Destination-buffer lifetime rule" below).
  const std::vector<char>* dest = nullptr;
  const char* dest_data = nullptr;
  std::size_t dest_size = 0;
};

/// An RMA window over each rank's local shard (constant bytes, e.g. the
/// packed database partition), scoped to the communicator it was created
/// on. Construction is collective over that communicator. The exposed
/// bytes must stay alive and unmodified while any rank can still read
/// them: callers must synchronize (fence() or Comm::barrier()) before
/// letting the storage die — mirroring MPI_Win_free's collective semantics.
///
/// Destination-buffer lifetime rule: between rget()/rget_range() and the
/// matching wait(), the destination vector is owned by the transfer — do
/// not resize, reassign, std::swap or destroy it, and do not issue a second
/// rget into it. Every request must be wait()ed before the next fence().
/// These rules are enforced: rget into a pending buffer, wait() on a
/// request whose buffer changed identity, and fence() with pending
/// requests all fail an MSP_CHECK — or, when the run's happens-before
/// checker is on (Runtime::enable_checking, MSPAR_CHECK), are reported as
/// dest-buffer-lifetime / fence-with-pending violations with both
/// conflicting access spans (see check.hpp). (The classic footgun was
/// issuing a prefetch into D_recv and swapping D_recv/D_comp before the
/// wait — silently scoring a half-defined shard.)
class Window {
 public:
  Window(Comm& comm, std::span<const char> local_shard);
  Window(const Window&) = delete;
  Window& operator=(const Window&) = delete;
  /// Non-collective, but revokes this rank's exposure: drains any reader
  /// copy still in flight out of our bytes, so that when an error unwinds
  /// a rank's stack its exposed storage cannot be freed under a concurrent
  /// rget. Healthy drivers fence before letting a window die, so only
  /// aborting runs ever contend here.
  ~Window();

  std::size_t shard_size(int target) const;

  /// Non-blocking one-sided read of `target`'s whole shard into `dest`
  /// (resized). Data is available after wait(); the transfer is modeled to
  /// proceed in the background — this is the paper's MPI_Get + masking.
  /// `concurrent_pulls` is how many ranks of this node are expected to pull
  /// simultaneously (ring step: every rank, so network().concurrent_pulls);
  /// pass 1 for an isolated transfer.
  RmaRequest rget(int target, std::vector<char>& dest, int concurrent_pulls);

  /// Partial one-sided read: bytes [offset, offset+length) of `target`'s
  /// shard — MPI_Get with a displacement, the primitive the on-demand
  /// candidate-store transport needs. Bounds-checked against the target's
  /// shard size.
  RmaRequest rget_range(int target, std::size_t offset, std::size_t length,
                        std::vector<char>& dest, int concurrent_pulls);

  /// Complete a pending get: any transfer time not already covered by
  /// computation shows up as residual communication. Checks that the
  /// destination buffer is still the one the request was issued into.
  void wait(RmaRequest& request);

  /// Collective fence (MPI_Win_fence): synchronizes the communicator.
  /// Requires every request issued on this window to have been wait()ed.
  void fence();

  /// Record a mutation of the locally exposed shard bytes with the
  /// happens-before checker (no-op when checking is off). The transport
  /// itself never mutates exposed shards; a driver that does must call this
  /// so the checker can order the write against peer reads — an unordered
  /// pair is a concurrent-shard-write / unordered-shard-read violation.
  void note_local_write(const std::string& what);

 private:
  friend struct check::TestBackdoor;

  /// One per exposing rank, shared by every rank's Window of the same
  /// collective construction. Readers hold `mutex` shared while copying
  /// out of the owner's bytes; the owner's destructor takes it exclusive
  /// and sets `revoked`, after which readers throw Aborted instead of
  /// touching freed storage.
  struct Exposure {
    std::shared_mutex mutex;
    bool revoked = false;
  };

  /// Rank-local bookkeeping for one in-flight get: the destination buffer
  /// plus the issue interval and trace event id the checker's violation
  /// reports point back to.
  struct PendingGet {
    const std::vector<char>* dest = nullptr;
    double begin = 0.0;          ///< virtual issue time
    double end = 0.0;           ///< modeled arrival time
    long long trace_event = -1;  ///< kRgetIssue span index (tracing only)
    std::string what;            ///< issue description (checking only)
  };

  Comm& comm_;
  std::vector<std::span<const char>> shards_;  ///< group-rank order
  std::vector<std::shared_ptr<Exposure>> exposures_;  ///< group-rank order
  /// Rank-local: destination buffers with a pending request on them.
  std::vector<PendingGet> pending_;
};

}  // namespace msp::sim
