// Multi-tenant cluster scheduler over the simulated ring (DESIGN.md §5l).
//
// run_sched() plays a *job mix* — batch searches and latency-sensitive
// serve sessions — against one shared serving ring
// (core/ring_service.hpp). Its replicated controller and event loop are the
// repo's one control plane: serve::run_service() is a one-job mix (one
// tenant, one kServe job owning the whole stream). Every rank runs the
// same controller on the same globally known inputs (job specs and their
// submit times, each serve job's arrival schedule, the fault schedule),
// and every decision — job submission, serve dispatch, backfill admission,
// preemption, fair-share decay — is taken only at fence-aligned boundaries
// where all virtual clocks are provably equal. No control messages exist,
// so there is nothing to reorder: the whole schedule is deterministic by
// the §5g argument.
//
// Work placement: all jobs execute as flights of the one ring. Batch jobs
// are sliced into fixed-size *chunks* admitted only when the ring has
// spare capacity — the Slurm-style backfill rule: a chunk is
// admitted iff its predicted completion (p ring steps at the EWMA step
// duration) fits before the next serve event, which is computable exactly
// because arrival schedules are global knowledge. A serve batch becoming
// ready preempts strictly-lower-priority chunks (when enabled): the chunk
// is removed whole from the ring and its queries re-queued — an *induced
// recoverable fault* riding the PR-1 crash-recovery contract, which is why
// preempted-then-resumed jobs stay bit-identical to their uncontended
// runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/hit.hpp"
#include "core/ring_service.hpp"
#include "sched/job.hpp"
#include "sched/tenant.hpp"
#include "serve/service.hpp"
#include "simmpi/runtime.hpp"
#include "spectra/spectrum.hpp"

namespace msp::sched {

struct SchedOptions {
  std::vector<TenantSpec> tenants;
  std::vector<JobSpec> jobs;
  /// Backfill batch chunks into measured serve idle spans. Off = batch
  /// jobs wait until every serve job has drained (the strict-partition
  /// baseline the bench compares against).
  bool backfill = true;
  /// Preempt strictly-lower-priority batch chunks when a serve batch
  /// becomes ready — the safety net for backfill misprediction.
  bool preempt = true;
  /// Queries per batch chunk (the backfill grain: one chunk = one ring
  /// flight of p steps).
  std::size_t chunk_queries = 8;
  /// Cap on batch chunks in flight at once (bounds how much per-step
  /// scoring weight backfill can add under a serve batch).
  std::size_t max_inflight_chunks = 2;
  /// Seed for the EWMA ring-step-duration estimate the backfill
  /// fit check uses before any step has been observed.
  double step_estimate_init_s = 0.02;
  bool mass_routing = true;
  double route_bucket_da = kServeRouteBucketDa;
};

/// One job's lifecycle over the run, all times virtual (-1 = never).
struct JobOutcome {
  std::string name;
  std::string tenant;
  JobKind kind = JobKind::kBatch;
  Priority priority = Priority::kNormal;
  double submit_s = 0.0;
  double start_s = -1.0;     ///< first chunk/batch entered the ring
  double complete_s = -1.0;  ///< last query published
  std::size_t queries_completed = 0;
  std::size_t queries_shed = 0;  ///< serve only
  std::size_t preemptions = 0;   ///< chunks evicted (batch only)
  std::size_t backfill_chunks = 0;
};

struct SchedResult {
  sim::RunReport report;
  QueryHits hits;  ///< hits[q] best-first; owned by exactly one job
  /// Per-query lifecycle across every job (batch queries "arrive" at their
  /// job's submit time).
  std::vector<serve::QueryOutcome> outcomes;
  std::vector<JobOutcome> jobs;
  std::vector<TenantAccounting> tenants;
  std::size_t completed = 0;  ///< queries published, all jobs
  std::size_t shed = 0;
  std::size_t batches = 0;  ///< ring flights admitted (serve + chunks)
  int ring_steps = 0;
  /// Router audit of every published flight, in publication order.
  std::vector<serve::BatchRouteStats> batch_routes;
  std::size_t preemptions = 0;
  std::size_t backfill_chunks = 0;
  /// Ring time spent on batch-only steps while at least one serve job was
  /// live — compute reclaimed from what a serve-only run reports as
  /// serve_idle_seconds(). The numerator of the bench's reclaimed-idle
  /// ratio.
  double backfill_busy_s = 0.0;
  double makespan_s = 0.0;
  double throughput_qps = 0.0;
};

/// Run the job mix on `runtime.size()` simulated ranks. `queries` is the
/// global stream every job owns a disjoint slice of.
SchedResult run_sched(const sim::Runtime& runtime,
                      const std::string& fasta_image,
                      const std::vector<Spectrum>& queries,
                      const SearchConfig& config, const SchedOptions& options);

}  // namespace msp::sched
