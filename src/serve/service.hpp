// Online peptide-identification service over the simulated cluster.
//
// The batch pipeline answers "how fast can p ranks chew a fixed workload";
// the service answers the operational question the paper's cluster would
// face next: queries arrive *over time* and each one has a completion
// latency. run_service() plays a deterministic arrival schedule against the
// sharded ring: arrivals pass admission control (bounded outstanding work —
// the serving-time analogue of the paper's 1 GB/process cap), a
// size-or-deadline batcher groups them, and closed batches dispatch into
// the multi-batch continuous ring (core/ring_service.hpp), which scores
// every in-flight batch during one database rotation and publishes each
// batch's top-τ results the moment its last shard is scored.
//
// run_service() is a one-job mix of the cluster scheduler
// (sched/scheduler.hpp): one tenant, one kServe job submitted at t = 0 that
// owns the whole query stream. The scheduler's replicated controller and
// its single event loop do all the work; this layer only maps
// ServiceOptions onto that job and the SchedResult back. Control is
// replicated, not centralized: every rank runs the same controller on the
// same globally-known schedules, and all control decisions are taken at
// fence-aligned boundaries where the virtual clocks are provably equal — so
// the ranks agree on every admission, batch close, dispatch, and shed
// without exchanging a single control message (DESIGN.md §5g). Results,
// traces, and latency numbers are bit-identical across reruns and kernel
// thread counts, with or without fault schedules.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/hit.hpp"
#include "core/ring_service.hpp"
#include "serve/admission.hpp"
#include "serve/arrival.hpp"
#include "serve/batcher.hpp"
#include "serve/slo.hpp"
#include "simmpi/runtime.hpp"
#include "spectra/spectrum.hpp"

namespace msp::serve {

struct ServiceOptions {
  ArrivalModel arrivals;
  BatchPolicy batch;
  AdmissionPolicy admission;
  DispatchMode mode = DispatchMode::kMultiBatchRing;
  /// Route batches through the global shard mass map: ring steps whose
  /// shard provably holds no candidate for any in-flight block are skipped
  /// at a constant decision cost (no fetch, no scoring), and visited bands
  /// are fetched partially (only the matching record range). Hits are
  /// bit-identical with routing on or off; only time and the audit
  /// counters change.
  bool mass_routing = true;
  /// Bucket width (Da) of the per-band mass histograms the ring exchanges
  /// for routing. Coarser = smaller exchange payload, slightly wider
  /// partial fetches; never affects hits (see core/ring_service.hpp).
  double route_bucket_da = kServeRouteBucketDa;
};

/// Per-query service record, all times in virtual seconds (-1 = never
/// happened). Latency is complete_s − arrival_s.
struct QueryOutcome {
  double arrival_s = 0.0;
  double admit_s = -1.0;
  double dispatch_s = -1.0;
  double complete_s = -1.0;
  bool shed = false;               ///< rejected by admission, never scored
  std::uint32_t redispatches = 0;  ///< crash-orphan re-admissions
  std::size_t batch_id = 0;        ///< last batch it rode (if dispatched)
};

/// Router audit for one published batch: its (member rank, shard) scoring
/// slots the mass router visited vs proved empty and skipped.
struct BatchRouteStats {
  std::size_t batch_id = 0;
  std::uint64_t steps_visited = 0;
  std::uint64_t steps_skipped = 0;
};

struct ServiceResult {
  sim::RunReport report;
  QueryHits hits;  ///< hits[q] best-first; empty for shed queries
  std::vector<QueryOutcome> outcomes;
  std::uint64_t candidates = 0;
  std::size_t completed = 0;
  std::size_t shed = 0;
  std::size_t batches = 0;  ///< batches dispatched into the ring
  int ring_steps = 0;
  /// Per-batch router audit, in publication order (empty batches shed
  /// before dispatch never appear). Aggregates below sum these.
  std::vector<BatchRouteStats> batch_routes;
  std::uint64_t steps_visited = 0;
  std::uint64_t steps_skipped = 0;
  /// skipped / (visited + skipped); 0 when nothing was dispatched.
  double skip_ratio = 0.0;
  double makespan_s = 0.0;      ///< last publication boundary
  double throughput_qps = 0.0;  ///< completed / makespan
  LatencySummary latency;       ///< completion latency of completed queries
};

/// Serve `queries` as a stream on `runtime.size()` simulated ranks.
ServiceResult run_service(const sim::Runtime& runtime,
                          const std::string& fasta_image,
                          const std::vector<Spectrum>& queries,
                          const SearchConfig& config,
                          const ServiceOptions& options = {});

}  // namespace msp::serve
