// Job model for the multi-tenant cluster scheduler (DESIGN.md §5l).
//
// A *job* is the scheduler's unit of admission: a batch search over a slice
// of the global query stream, or an online serve session with its own
// arrival process. Jobs carry a tenant identity (QOS and accounting are
// per tenant, Slurm-style) and a priority class; the scheduler controller
// decides — only at fence-aligned boundaries, from globally known
// schedules — when each job's work enters the shared serving ring. Specs
// are plain data replicated to every rank, which is what lets the per-rank
// controllers agree on every decision without a single control message.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/admission.hpp"
#include "serve/arrival.hpp"
#include "serve/batcher.hpp"

namespace msp::sched {

enum class JobKind {
  kBatch,  ///< offline search over a query range (any Algorithm A/B/... —
           ///< executed as ring flights, hit-identical to every driver)
  kServe,  ///< latency-sensitive serve session with its own arrival model
};

/// "batch" | "serve" (trace labels).
const char* job_kind_name(JobKind kind);

/// Priority classes, higher wins. Preemption only ever victimizes *batch*
/// work of a class strictly below the dispatching serve job's class.
enum class Priority : std::uint8_t { kLow = 0, kNormal = 1, kHigh = 2 };

/// "low" | "normal" | "high" (trace labels).
const char* priority_name(Priority priority);

/// One tenant of the cluster: fair-share weight plus hard QOS limits.
struct TenantSpec {
  std::string name;
  /// Fair-share weight: decayed usage is divided by it when the scheduler
  /// ranks tenants for backfill, so a weight-2 tenant sustains twice the
  /// batch throughput of a weight-1 tenant under contention.
  double weight = 1.0;
  /// Cap on this tenant's batch queries in flight on the ring at once
  /// (0 = unlimited). The per-tenant analogue of the serve admission cap.
  std::size_t max_inflight_queries = 0;
};

/// One job submitted to the cluster. It owns the half-open range
/// [query_begin, query_end) of the global stream; ranges of distinct jobs
/// must not overlap (each query has exactly one owner).
struct JobSpec {
  std::string name;
  std::string tenant;  ///< must match a TenantSpec::name
  JobKind kind = JobKind::kBatch;
  Priority priority = Priority::kNormal;
  /// Virtual submission time (finite, >= 0).
  double submit_s = 0.0;
  std::size_t query_begin = 0;
  std::size_t query_end = 0;
  /// kServe: this session's arrival process (times relative to submit_s),
  /// batching, admission policy, and how its closed batches enter the ring
  /// (kBatchAtATime: one batch at a time, only onto an empty ring).
  serve::ArrivalModel arrivals;
  serve::BatchPolicy batch;
  serve::AdmissionPolicy admission;
  serve::DispatchMode mode = serve::DispatchMode::kMultiBatchRing;

  std::size_t query_count() const { return query_end - query_begin; }
};

}  // namespace msp::sched
