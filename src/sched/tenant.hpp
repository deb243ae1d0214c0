// Per-tenant QOS state and accounting for the cluster scheduler.
//
// Fair share is Slurm-shaped: every tenant accumulates *usage* (queries'
// worth of ring work it consumed) that decays exponentially with a fixed
// half-life (kFairShareHalfLifeS), and the backfill scheduler always serves
// the runnable tenant with the lowest weight-normalized decayed usage — so
// a tenant that just burned a large batch slides to the back of the line
// and recovers its share as the decay forgets. All state advances only at
// fence-aligned boundaries on the virtual clock (never a host clock), with
// ties broken by tenant ordinal, so every rank's replica of the ledger
// walks the identical trajectory.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sched/job.hpp"
#include "serve/slo.hpp"

namespace msp::sched {

/// What one tenant did over a scheduled run — the `TenantAccounting`
/// record folded into RunReport counters and rendered per tenant in
/// BENCH_sched.json.
struct TenantAccounting {
  std::string name;
  double weight = 1.0;
  std::size_t jobs_submitted = 0;
  std::size_t jobs_completed = 0;
  std::size_t queries_completed = 0;  ///< published (serve + batch)
  std::size_t queries_shed = 0;       ///< serve arrivals dropped by admission
  std::size_t preemptions = 0;        ///< chunks evicted from the ring
  std::size_t backfill_chunks = 0;    ///< chunks admitted into serve gaps
  double usage_end = 0.0;             ///< decayed usage at the final boundary
  double throughput_qps = 0.0;        ///< queries_completed / makespan
  /// Completion latency of the tenant's *serve* queries (empty for
  /// batch-only tenants).
  serve::LatencySummary serve_latency;
};

/// Virtual seconds over which a tenant's fair-share usage halves.
inline constexpr double kFairShareHalfLifeS = 30.0;

/// The replicated fair-share ledger (one instance per rank, identical
/// inputs → identical state).
class TenantLedger {
 public:
  explicit TenantLedger(const std::vector<TenantSpec>& specs);

  std::size_t size() const { return specs_.size(); }
  const TenantSpec& spec(std::size_t t) const { return specs_[t]; }

  /// Ordinal of `name`; throws InvalidArgument when unknown.
  std::size_t index_of(const std::string& name) const;

  /// Decay every tenant's usage from the last boundary to `now`
  /// (usage *= 2^(-Δt / kFairShareHalfLifeS)).
  void advance(double now);

  /// Charge `amount` usage units (query scoring slots) to tenant `t`.
  void charge(std::size_t t, double amount) { usage_[t] += amount; }

  /// Weight-normalized decayed usage — the backfill ranking key.
  double normalized_usage(std::size_t t) const {
    return usage_[t] / specs_[t].weight;
  }
  double usage(std::size_t t) const { return usage_[t]; }

  /// How many more queries tenant `t` may put in flight with `inflight`
  /// already there: the room under its max_inflight_queries cap, or
  /// SIZE_MAX when the tenant is uncapped.
  std::size_t inflight_room(std::size_t t, std::size_t inflight) const {
    const std::size_t cap = specs_[t].max_inflight_queries;
    return cap == 0 ? std::numeric_limits<std::size_t>::max()
                    : cap - std::min(cap, inflight);
  }

 private:
  std::vector<TenantSpec> specs_;
  std::vector<double> usage_;
  double last_advance_s_ = 0.0;
};

}  // namespace msp::sched
