// Event-level spans on the virtual clock.
//
// A Span is one interval (or instant) of a rank's timeline, recorded only
// when the Runtime's tracing is enabled: the clock's charge/wait methods
// emit the where-did-time-go lanes, the communication layer emits transfer
// and fault lanes, and the algorithms drop iteration markers. When tracing
// is disabled nothing is recorded — the only cost anywhere is a null-pointer
// check per clock charge (the zero-cost-when-disabled contract, DESIGN.md
// §5e).
//
// Lanes (the Chrome trace-event `tid` of RunReport::to_chrome_trace()):
//   0 "clock"     — non-overlapping intervals that advanced the virtual
//                   clock (compute, io, rget-wait, barrier, recovery-wait)
//                   plus instant iteration markers. Monotone and gap-free up
//                   to idle time by construction.
//   1 "transfers" — modeled in-flight transfers: begin = issue time, end =
//                   modeled arrival. Overlaps the clock lane; that overlap
//                   IS the masking the paper measures.
//   2 "faults"    — injected-fault activity (retry, crash, recovery spans)
//                   with human-readable detail; overlays the clock lane.
//   3 "serve"     — online-service control events (arrival admission, load
//                   shedding, batch dispatch/publication): instant markers
//                   dropped by the serving layer at step boundaries, plus
//                   queue-depth detail. Only populated by serving runs.
//   4 "sched"     — cluster-scheduler decisions (job submit/start/complete,
//                   backfill admissions, preemptions): instant markers
//                   dropped by the sched controller at fence boundaries.
//                   Only populated by scheduled (multi-job) runs.
#pragma once

#include <string>
#include <vector>

namespace msp::sim {

enum class SpanKind {
  // ---- clock lane ----
  kCompute,       ///< VirtualClock::charge_compute
  kIo,            ///< VirtualClock::charge_io
  kRgetWait,      ///< residual (unmasked) data wait: VirtualClock::wait_until
  kBarrier,       ///< barrier/fence imbalance wait: VirtualClock::sync_until
  kRecoveryWait,  ///< clock blocked on retry backoff / crash detection
  kMarker,        ///< instant algorithm marker (ring iteration, phase start)
  kServeIdle,     ///< service ring idle: clock advanced to the next arrival
  // ---- transfer lane ----
  kRgetIssue,     ///< modeled one-sided transfer in flight (rget/rget_range)
  // ---- fault lane ----
  kFaultRetry,
  kFaultCrash,
  kFaultRecovery,
  // ---- serve lane (instant control markers; see serve/service.hpp) ----
  kServeAdmit,     ///< queries admitted to the service queue
  kServeShed,      ///< arrivals shed by admission control
  kServeDispatch,  ///< batch dispatched into the service ring
  kServePublish,   ///< batch's last shard scored; results published
  kServeRouteSkip, ///< ring step skipped by the shard mass map router
  // ---- sched lane (instant scheduler decisions; see sched/scheduler.hpp) --
  kSchedSubmit,    ///< job entered the scheduler queue (virtual arrival)
  kSchedStart,     ///< job's first chunk admitted to the ring
  kSchedBackfill,  ///< batch chunk backfilled into a measured serve gap
  kSchedPreempt,   ///< batch flight preempted; queries re-queued
  kSchedComplete,  ///< job's last query published
};

const char* span_kind_name(SpanKind kind);

/// Trace lane a kind renders on (0 clock, 1 transfers, 2 faults, 3 serve,
/// 4 sched).
int span_lane(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::kCompute;
  double begin = 0.0;  ///< virtual time the interval started
  double end = 0.0;    ///< virtual time it ended (== begin for instants)
  std::string name;    ///< optional detail (markers, transfers, faults)
};

using SpanLog = std::vector<Span>;

}  // namespace msp::sim
