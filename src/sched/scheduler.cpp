#include "sched/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <optional>
#include <tuple>
#include <utility>

#include "core/search_engine.hpp"
#include "simmpi/comm.hpp"
#include "util/error.hpp"

namespace msp::sched {
namespace {

constexpr double kNever = std::numeric_limits<double>::infinity();

/// Per-rank runtime state of one job. Mutated only at fence-aligned
/// boundaries from replicated inputs, so every rank's copy is identical.
struct JobRt {
  const JobSpec* spec = nullptr;
  std::size_t tenant = 0;
  bool submitted = false;
  bool completed = false;
  double start_s = -1.0;
  double complete_s = -1.0;
  std::size_t completed_queries = 0;
  std::size_t shed = 0;
  std::size_t preemptions = 0;
  std::size_t backfill_chunks = 0;
  std::size_t inflight = 0;  ///< queries on the ring (dispatched, unpublished)
  // kBatch: queries awaiting (re-)admission, oldest first.
  std::deque<std::size_t> pending;
  // kServe: the serve-session control plane, one per job.
  std::optional<serve::AdaptiveBatcher> batcher;
  std::optional<serve::AdmissionController> admission;
  std::size_t next_arrival = 0;
  std::deque<std::size_t> waiting;  ///< kDelay backpressure queue
  std::deque<std::size_t> orphans;  ///< crash orphans awaiting re-admission
  std::deque<std::vector<std::size_t>> ready;  ///< closed, undispatched

  bool live() const { return submitted && !completed; }
};

/// One flight the scheduler admitted, by ring batch id (ids are dense).
struct FlightRec {
  std::size_t job = 0;
  std::size_t queries = 0;
  bool is_serve = false;
  bool active = false;
};

/// The replicated scheduler controller — the repo's one control plane;
/// run_service is a one-job mix of it (see the header comment for the
/// decision rules). One instance per rank, identical inputs, identical
/// trajectory.
class SchedController {
 public:
  SchedController(sim::Comm& comm, const SchedOptions& options,
                  const std::vector<std::vector<double>>& serve_arrivals,
                  std::size_t query_count)
      : comm_(comm),
        options_(options),
        serve_arrivals_(serve_arrivals),
        ledger_(options.tenants),
        outcomes_(query_count),
        step_estimate_s_(options.step_estimate_init_s) {
    jobs_.resize(options_.jobs.size());
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      JobRt& job = jobs_[j];
      job.spec = &options_.jobs[j];
      job.tenant = ledger_.index_of(job.spec->tenant);
    }
  }

  /// Advance the control plane to the fence-aligned time `now`: decay fair
  /// share, submit due jobs, replay every live serve session's arrival and
  /// deadline events, re-admit orphans, and retire finished jobs.
  void boundary(double now) {
    ledger_.advance(now);
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      JobRt& job = jobs_[j];
      if (!job.submitted && job.spec->submit_s <= now) submit(j);
      if (job.live() && job.spec->kind == JobKind::kServe)
        replay_serve(j, now);
    }
    retire_completed(now);
  }

  /// Batch chunks to evict so a ready serve batch rides a clean ring:
  /// every active chunk whose job's priority is strictly below the
  /// highest-priority ready serve batch. Empty when preemption is off or
  /// nothing is ready.
  std::vector<std::size_t> take_preemptions() const {
    std::vector<std::size_t> victims;
    if (!options_.preempt) return victims;
    int ready_priority = -1;
    for (const JobRt& job : jobs_)
      if (job.live() && job.spec->kind == JobKind::kServe && !job.ready.empty())
        ready_priority = std::max(ready_priority,
                                  static_cast<int>(job.spec->priority));
    if (ready_priority < 0) return victims;
    for (std::size_t id = 0; id < flights_.size(); ++id) {
      const FlightRec& flight = flights_[id];
      if (!flight.active || flight.is_serve) continue;
      if (static_cast<int>(jobs_[flight.job].spec->priority) < ready_priority)
        victims.push_back(id);
    }
    return victims;
  }

  /// Fold a preempted flight's queries back into its job (the induced-
  /// fault re-queue: they go to the *front* — they are the job's oldest
  /// unserved work — and will be re-scored from scratch).
  void requeue_preempted(std::size_t batch_id,
                         const std::vector<std::size_t>& ids, double now) {
    FlightRec& flight = flights_[batch_id];
    JobRt& job = jobs_[flight.job];
    flight.active = false;
    --batch_flights_;
    job.inflight -= ids.size();
    for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
      ++outcomes_[*it].redispatches;
      job.pending.push_front(*it);
    }
    ++job.preemptions;
    ++preemptions_;
    comm_.trace_sched(sim::SpanKind::kSchedPreempt,
                      "job " + job.spec->name + ": chunk " +
                          std::to_string(batch_id) + " preempted (" +
                          std::to_string(ids.size()) + " queries re-queued) "
                          "at boundary " + std::to_string(step_hint(now)));
  }

  /// Flights to admit at this boundary onto a ring holding `in_flight`
  /// flights: every ready serve batch (a kBatchAtATime job dispatches one,
  /// and only onto an empty ring), then — when the ring is serve-quiet and
  /// the gap fits — backfill chunks from the fair-share-ranked batch jobs.
  std::vector<ServiceBatch> take_dispatch(double now, std::size_t in_flight) {
    std::vector<ServiceBatch> out;
    bool serve_held = false;
    // Serve batches first, in job order (replicated, hence deterministic).
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      JobRt& job = jobs_[j];
      if (!job.live() || job.spec->kind != JobKind::kServe) continue;
      while (!job.ready.empty()) {
        if (job.spec->mode == serve::DispatchMode::kBatchAtATime &&
            in_flight + out.size() > 0) {
          serve_held = true;
          break;
        }
        out.push_back(make_flight(j, std::move(job.ready.front()), now,
                                  /*is_serve=*/true, /*backfilled=*/false));
        job.ready.pop_front();
      }
    }
    const bool serve_quiet = serve_flights_ == 0 && out.empty() && !serve_held;
    if (!serve_quiet) return out;

    // Backfill window: with backfill on, a chunk fits iff its predicted
    // completion (p steps at the EWMA estimate) lands before the next
    // serve event — computable exactly because every schedule is global.
    // With backfill off, batch work waits for a serve-free cluster.
    const double next_serve = next_serve_event();
    while (batch_flights_ < options_.max_inflight_chunks) {
      const bool fits =
          options_.backfill
              ? now + static_cast<double>(comm_.size()) * step_estimate_s_ <=
                    next_serve
              : next_serve >= kNever;
      if (!fits) break;
      const std::size_t j = pick_batch_job();
      if (j == jobs_.size()) break;
      JobRt& job = jobs_[j];
      const std::size_t take =
          std::min({options_.chunk_queries, job.pending.size(),
                    ledger_.inflight_room(job.tenant,
                                          tenant_inflight(job.tenant))});
      std::vector<std::size_t> ids;
      ids.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        ids.push_back(job.pending.front());
        job.pending.pop_front();
      }
      const bool backfilled = any_serve_live();
      out.push_back(make_flight(j, std::move(ids), now, /*is_serve=*/false,
                                backfilled));
    }
    return out;
  }

  /// Fold one ring step's outcome back into the scheduler: publications
  /// complete queries and charge fair-share usage, crash orphans re-queue
  /// through their owning job, and the EWMA step estimate learns the
  /// observed boundary-to-boundary duration.
  void on_step(const ServiceStepOutcome& out, double prev_boundary,
               bool serve_was_quiet) {
    const double delta = out.boundary_time - prev_boundary;
    if (delta > 0.0)
      step_estimate_s_ = 0.5 * step_estimate_s_ + 0.5 * delta;
    // A batch-only step inside a live serve session is reclaimed idle: a
    // serve-only run would have parked its clocks for exactly this span.
    if (serve_was_quiet && batch_flights_ > 0 && any_serve_live())
      backfill_busy_s_ += delta;

    for (const PublishedBatch& batch : out.published) {
      FlightRec& flight = flights_[batch.batch_id];
      JobRt& job = jobs_[flight.job];
      flight.active = false;
      if (flight.is_serve)
        --serve_flights_;
      else
        --batch_flights_;
      job.inflight -= batch.query_ids.size();
      job.completed_queries += batch.query_ids.size();
      for (const std::size_t id : batch.query_ids) {
        MSP_CHECK_MSG(outcomes_[id].complete_s < 0.0,
                      "query " << id << " published twice");
        outcomes_[id].complete_s = out.boundary_time;
      }
      if (flight.is_serve) job.admission->release(batch.query_ids.size());
      ledger_.charge(job.tenant,
                     static_cast<double>(batch.query_ids.size()));
      batch_routes_.push_back(serve::BatchRouteStats{
          batch.batch_id, batch.steps_visited, batch.steps_skipped});
    }
    for (const std::size_t id : out.orphaned) {
      JobRt& job = jobs_[owner_of(id)];
      --job.inflight;
      if (job.spec->kind == JobKind::kServe) {
        job.orphans.push_back(id);  // re-enters through its batcher
      } else {
        ++outcomes_[id].redispatches;
        job.pending.push_back(id);
      }
    }
  }

  bool drained() const {
    for (const JobRt& job : jobs_)
      if (!job.completed) return false;
    return true;
  }

  /// Some job still holds work that has not reached the ring
  /// (unsubmitted, pending, arrivals left, waiting, orphans, batcher
  /// pending, or ready) — the ring's prefetch hint: without it, an unrouted
  /// ring whose last flights are finishing fetches a band it never scores.
  bool work_pending() const {
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      const JobRt& job = jobs_[j];
      if (job.completed) continue;
      if (!job.submitted || !job.pending.empty() || !job.waiting.empty() ||
          !job.orphans.empty() || !job.ready.empty())
        return true;
      if (job.spec->kind == JobKind::kServe &&
          (job.next_arrival < serve_arrivals_[j].size() ||
           job.batcher->pending() > 0))
        return true;
    }
    return false;
  }

  /// Next control-plane instant the idle ring must wake for: an
  /// unsubmitted job's submit time, or a live serve session's next arrival
  /// or batch deadline.
  double next_event_time() const {
    double next = next_serve_event();
    for (const JobRt& job : jobs_)
      if (!job.submitted && job.spec->kind != JobKind::kServe)
        next = std::min(next, job.spec->submit_s);
    return next;
  }

  std::size_t serve_flights() const { return serve_flights_; }
  std::size_t batch_flights() const { return batch_flights_; }
  bool any_serve_live() const {
    for (const JobRt& job : jobs_)
      if (job.live() && job.spec->kind == JobKind::kServe) return true;
    return false;
  }

  // ---- end-of-run exports (rank 0 copies these out) ----
  std::vector<serve::QueryOutcome>& outcomes() { return outcomes_; }
  std::vector<serve::BatchRouteStats>& batch_routes() { return batch_routes_; }
  const std::vector<JobRt>& jobs() const { return jobs_; }
  const TenantLedger& ledger() const { return ledger_; }
  std::size_t batches_admitted() const { return flights_.size(); }
  std::size_t preemptions() const { return preemptions_; }
  std::size_t backfill_chunks() const { return backfill_chunks_; }
  double backfill_busy_s() const { return backfill_busy_s_; }

 private:
  void submit(std::size_t j) {
    JobRt& job = jobs_[j];
    job.submitted = true;
    const JobSpec& spec = *job.spec;
    if (spec.kind == JobKind::kBatch) {
      for (std::size_t id = spec.query_begin; id < spec.query_end; ++id) {
        job.pending.push_back(id);
        outcomes_[id].arrival_s = spec.submit_s;
      }
    } else {
      job.batcher.emplace(spec.batch);
      job.admission.emplace(spec.admission);
    }
    comm_.trace_sched(
        sim::SpanKind::kSchedSubmit,
        "job " + spec.name + " submitted (" + job_kind_name(spec.kind) +
            ", " + priority_name(spec.priority) + ", tenant " + spec.tenant +
            ", " + std::to_string(spec.query_count()) + " queries)");
  }

  /// One serve job's boundary replay, in event order: crash orphans,
  /// freed-capacity drain of delayed admissions, then arrivals and batch
  /// deadlines interleaved, the deadline first on a tie (so a
  /// deadline-closed batch never absorbs a query arriving at its close).
  void replay_serve(std::size_t j, double now) {
    JobRt& job = jobs_[j];
    const std::vector<double>& arrivals = serve_arrivals_[j];
    const std::size_t readmitted = job.orphans.size();
    for (const std::size_t id : job.orphans) {
      ++outcomes_[id].redispatches;
      job.batcher->enqueue(id, now);
    }
    job.orphans.clear();

    std::size_t admitted = 0;
    while (!job.waiting.empty() && job.admission->try_admit()) {
      const std::size_t id = job.waiting.front();
      job.waiting.pop_front();
      outcomes_[id].admit_s = now;
      job.batcher->enqueue(id, now);
      ++admitted;
    }

    std::size_t shed = 0;
    for (;;) {
      const double arrival = job.next_arrival < arrivals.size()
                                 ? arrivals[job.next_arrival]
                                 : kNever;
      const double deadline = job.batcher->next_deadline();
      if (std::min(arrival, deadline) > now) break;
      if (deadline <= arrival) {
        job.batcher->close_due(deadline);
        continue;
      }
      const std::size_t id = job.spec->query_begin + job.next_arrival++;
      outcomes_[id].arrival_s = arrival;
      if (job.admission->try_admit()) {
        outcomes_[id].admit_s = arrival;
        job.batcher->enqueue(id, arrival);
        ++admitted;
      } else if (job.admission->policy().overload ==
                 serve::OverloadPolicy::kShed) {
        outcomes_[id].shed = true;
        ++shed;
      } else {
        job.waiting.push_back(id);
      }
    }
    job.shed += shed;

    for (auto& ids : job.batcher->take_closed())
      job.ready.push_back(std::move(ids));

    const std::string depth =
        " (outstanding " + std::to_string(job.admission->outstanding()) + ")";
    if (admitted + readmitted > 0)
      comm_.trace_serve(sim::SpanKind::kServeAdmit,
                        "job " + job.spec->name + ": admitted " +
                            std::to_string(admitted) +
                            (readmitted > 0 ? " +" +
                                                  std::to_string(readmitted) +
                                                  " re-admitted"
                                            : std::string()) +
                            depth);
    if (shed > 0)
      comm_.trace_serve(sim::SpanKind::kServeShed,
                        "job " + job.spec->name + ": shed " +
                            std::to_string(shed) + depth);
  }

  void retire_completed(double now) {
    for (JobRt& job : jobs_) {
      if (!job.live()) continue;
      bool done = false;
      switch (job.spec->kind) {
        case JobKind::kBatch:
          done = job.pending.empty() && job.inflight == 0 &&
                 job.completed_queries == job.spec->query_count();
          break;
        case JobKind::kServe:
          done = job.next_arrival == job.spec->query_count() &&
                 job.waiting.empty() && job.orphans.empty() &&
                 job.batcher->pending() == 0 && job.ready.empty() &&
                 job.inflight == 0;
          break;
      }
      if (!done) continue;
      job.completed = true;
      job.complete_s = now;
      comm_.trace_sched(sim::SpanKind::kSchedComplete,
                        "job " + job.spec->name + " completed (" +
                            std::to_string(job.completed_queries) +
                            " queries)");
    }
  }

  ServiceBatch make_flight(std::size_t j, std::vector<std::size_t> ids,
                           double now, bool is_serve, bool backfilled) {
    JobRt& job = jobs_[j];
    ServiceBatch batch;
    batch.id = flights_.size();
    batch.query_ids = std::move(ids);
    flights_.push_back(
        FlightRec{j, batch.query_ids.size(), is_serve, /*active=*/true});
    if (is_serve)
      ++serve_flights_;
    else
      ++batch_flights_;
    job.inflight += batch.query_ids.size();
    for (const std::size_t id : batch.query_ids) {
      outcomes_[id].dispatch_s = now;
      outcomes_[id].batch_id = batch.id;
      if (outcomes_[id].admit_s < 0.0) outcomes_[id].admit_s = now;
    }
    if (job.start_s < 0.0) {
      job.start_s = now;
      comm_.trace_sched(sim::SpanKind::kSchedStart,
                        "job " + job.spec->name + " started");
    }
    if (backfilled) {
      ++job.backfill_chunks;
      ++backfill_chunks_;
      comm_.trace_sched(sim::SpanKind::kSchedBackfill,
                        "job " + job.spec->name + ": chunk " +
                            std::to_string(batch.id) + " backfilled (" +
                            std::to_string(batch.query_ids.size()) +
                            " queries)");
    }
    return batch;
  }

  /// The runnable batch job backfill serves next: highest priority, then
  /// lowest weight-normalized decayed tenant usage, then job ordinal.
  std::size_t pick_batch_job() const {
    std::size_t best = jobs_.size();
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      const JobRt& job = jobs_[j];
      if (!job.live() || job.spec->kind != JobKind::kBatch ||
          job.pending.empty())
        continue;
      if (ledger_.inflight_room(job.tenant, tenant_inflight(job.tenant)) == 0)
        continue;
      if (best == jobs_.size() || ranks_before(j, best)) best = j;
    }
    return best;
  }

  /// Strict-weak scheduling order over runnable jobs (see pick_batch_job).
  bool ranks_before(std::size_t a, std::size_t b) const {
    const JobRt& ja = jobs_[a];
    const JobRt& jb = jobs_[b];
    if (ja.spec->priority != jb.spec->priority)
      return static_cast<int>(ja.spec->priority) >
             static_cast<int>(jb.spec->priority);
    const double ua = ledger_.normalized_usage(ja.tenant);
    const double ub = ledger_.normalized_usage(jb.tenant);
    if (ua != ub) return ua < ub;
    return a < b;
  }

  std::size_t tenant_inflight(std::size_t t) const {
    std::size_t total = 0;
    for (const JobRt& job : jobs_)
      if (job.tenant == t && job.spec->kind == JobKind::kBatch)
        total += job.inflight;
    return total;
  }

  /// Earliest instant serve work can (re)claim the ring: a live session's
  /// next arrival or deadline, or an unsubmitted serve job's submit time.
  /// +inf when no serve work will ever appear again — the gap batch work
  /// backfills into must close before this.
  double next_serve_event() const {
    double next = kNever;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      const JobRt& job = jobs_[j];
      if (job.spec->kind != JobKind::kServe || job.completed) continue;
      if (!job.submitted) {
        next = std::min(next, job.spec->submit_s);
        continue;
      }
      const std::vector<double>& arrivals = serve_arrivals_[j];
      if (job.next_arrival < arrivals.size())
        next = std::min(next, arrivals[job.next_arrival]);
      next = std::min(next, job.batcher->next_deadline());
    }
    return next;
  }

  std::size_t owner_of(std::size_t id) const {
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      const JobSpec& spec = *jobs_[j].spec;
      if (id >= spec.query_begin && id < spec.query_end) return j;
    }
    throw InvalidArgument("orphaned query id owned by no job");
  }

  /// Human-readable boundary tag for trace labels (whole virtual ms —
  /// plain data, never fed back into any decision).
  static long step_hint(double now) {
    return static_cast<long>(now * 1000.0);
  }

  sim::Comm& comm_;
  const SchedOptions& options_;
  const std::vector<std::vector<double>>& serve_arrivals_;
  TenantLedger ledger_;
  std::vector<JobRt> jobs_;
  std::vector<serve::QueryOutcome> outcomes_;
  std::vector<FlightRec> flights_;
  std::vector<serve::BatchRouteStats> batch_routes_;  ///< publication order
  std::size_t serve_flights_ = 0;
  std::size_t batch_flights_ = 0;
  std::size_t preemptions_ = 0;
  std::size_t backfill_chunks_ = 0;
  double backfill_busy_s_ = 0.0;
  double step_estimate_s_ = 0.0;
};

struct BodyOutput {
  std::vector<serve::QueryOutcome> outcomes;
  std::vector<serve::BatchRouteStats> batch_routes;
  std::vector<JobOutcome> jobs;
  std::vector<TenantAccounting> tenants;
  std::size_t batches = 0;
  std::size_t preemptions = 0;
  std::size_t backfill_chunks = 0;
  double backfill_busy_s = 0.0;
  int ring_steps = 0;
};

void sched_body(sim::Comm& comm, const std::string& fasta_image,
                const std::vector<Spectrum>& queries,
                const std::vector<std::vector<double>>& serve_arrivals,
                const SearchEngine& engine, const SchedOptions& options,
                QueryHits& all_hits, BodyOutput& output) {
  RingService ring(comm, fasta_image,
                   std::span<const Spectrum>(queries.data(), queries.size()),
                   engine, all_hits, options.mass_routing,
                   options.route_bucket_da);
  SchedController ctl(comm, options, serve_arrivals, queries.size());

  // The event loop: admit, step, idle-until, with two scheduler decisions
  // at each boundary (preempt, dispatch/backfill). Every `boundary` value
  // is fence-aligned — the post-construction barrier, a step's boundary
  // time, an idle target — never a raw clock read after divergent per-rank
  // charges, which is what keeps the replicated controllers in lockstep.
  double boundary = comm.clock().now();
  for (;;) {
    ctl.boundary(boundary);
    for (const std::size_t victim : ctl.take_preemptions()) {
      const std::vector<std::size_t> ids = ring.preempt(victim);
      ctl.requeue_preempted(victim, ids, boundary);
    }
    for (ServiceBatch& batch : ctl.take_dispatch(boundary, ring.in_flight()))
      ring.admit(batch);

    if (ring.in_flight() == 0) {
      if (ctl.drained()) break;
      // Idle gap: nothing runnable fits before the next control event.
      const double next = ctl.next_event_time();
      MSP_CHECK_MSG(next < kNever, "idle scheduler with no future event");
      comm.clock().idle_until(next);
      boundary = std::max(boundary, next);
      continue;
    }

    const bool serve_was_quiet = ctl.serve_flights() == 0;
    const ServiceStepOutcome out = ring.step(ctl.work_pending());
    ctl.on_step(out, boundary, serve_was_quiet);
    boundary = out.boundary_time;
  }
  ring.finish();

  // Fold the tenant ledger into the RunReport as rank-0 integer counters —
  // micro-units for the continuous quantities — so the existing CSV/JSON
  // plumbing carries the accounting without a schema of its own.
  if (comm.rank() == 0) {
    comm.bump("sched_preemptions", ctl.preemptions());
    comm.bump("sched_backfill_chunks", ctl.backfill_chunks());
    comm.bump("sched_backfill_busy_us",
              static_cast<std::uint64_t>(
                  std::llround(ctl.backfill_busy_s() * 1e6)));
    for (std::size_t t = 0; t < ctl.ledger().size(); ++t) {
      const std::string& name = ctl.ledger().spec(t).name;
      std::size_t completed = 0;
      std::size_t jobs_done = 0;
      for (const JobRt& job : ctl.jobs()) {
        if (job.tenant != t) continue;
        completed += job.completed_queries;
        if (job.completed) ++jobs_done;
      }
      comm.bump("tenant_" + name + "_completed", completed);
      comm.bump("tenant_" + name + "_jobs", jobs_done);
      comm.bump("tenant_" + name + "_usage_micro",
                static_cast<std::uint64_t>(
                    std::llround(ctl.ledger().usage(t) * 1e6)));
    }

    output.outcomes = std::move(ctl.outcomes());
    output.batch_routes = std::move(ctl.batch_routes());
    output.batches = ctl.batches_admitted();
    output.preemptions = ctl.preemptions();
    output.backfill_chunks = ctl.backfill_chunks();
    output.backfill_busy_s = ctl.backfill_busy_s();
    output.ring_steps = ring.steps_done();

    output.jobs.reserve(ctl.jobs().size());
    for (const JobRt& job : ctl.jobs()) {
      JobOutcome outcome;
      outcome.name = job.spec->name;
      outcome.tenant = job.spec->tenant;
      outcome.kind = job.spec->kind;
      outcome.priority = job.spec->priority;
      outcome.submit_s = job.spec->submit_s;
      outcome.start_s = job.start_s;
      outcome.complete_s = job.complete_s;
      outcome.queries_completed = job.completed_queries;
      outcome.queries_shed = job.shed;
      outcome.preemptions = job.preemptions;
      outcome.backfill_chunks = job.backfill_chunks;
      output.jobs.push_back(std::move(outcome));
    }

    output.tenants.reserve(ctl.ledger().size());
    for (std::size_t t = 0; t < ctl.ledger().size(); ++t) {
      TenantAccounting account;
      account.name = ctl.ledger().spec(t).name;
      account.weight = ctl.ledger().spec(t).weight;
      account.usage_end = ctl.ledger().usage(t);
      for (const JobRt& job : ctl.jobs()) {
        if (job.tenant != t) continue;
        ++account.jobs_submitted;
        if (job.completed) ++account.jobs_completed;
        account.queries_completed += job.completed_queries;
        account.queries_shed += job.shed;
        account.preemptions += job.preemptions;
        account.backfill_chunks += job.backfill_chunks;
      }
      output.tenants.push_back(std::move(account));
    }
  }
}

void validate(const std::vector<Spectrum>& queries,
              const SchedOptions& options) {
  if (options.jobs.empty())
    throw InvalidArgument("scheduler needs at least one job");
  if (options.chunk_queries == 0)
    throw InvalidArgument("chunk_queries must be >= 1");
  if (options.max_inflight_chunks == 0)
    throw InvalidArgument("max_inflight_chunks must be >= 1");
  if (!std::isfinite(options.step_estimate_init_s) ||
      options.step_estimate_init_s <= 0.0)
    throw InvalidArgument("step_estimate_init_s must be finite and positive");
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  for (const JobSpec& job : options.jobs) {
    if (job.name.empty()) throw InvalidArgument("job with an empty name");
    if (!std::isfinite(job.submit_s) || job.submit_s < 0.0)
      throw InvalidArgument("job " + job.name +
                            ": submit_s must be finite and non-negative");
    if (job.query_begin > job.query_end || job.query_end > queries.size())
      throw InvalidArgument("job " + job.name + " query range out of bounds");
    if (job.query_count() > 0)
      ranges.emplace_back(job.query_begin, job.query_end);
  }
  std::sort(ranges.begin(), ranges.end());
  for (std::size_t i = 1; i < ranges.size(); ++i)
    if (ranges[i].first < ranges[i - 1].second)
      throw InvalidArgument("job query ranges overlap — every query needs "
                            "exactly one owner");
}

/// Conservation over a finished run: every query of every job is either
/// published exactly once or shed, never both, and the per-tenant ledgers
/// and run totals balance against the per-job counters.
void check_conservation(const SchedOptions& options,
                        const SchedResult& result) {
  TenantAccounting jobs_sum;
  for (std::size_t j = 0; j < options.jobs.size(); ++j) {
    const JobSpec& spec = options.jobs[j];
    const JobOutcome& job = result.jobs[j];
    jobs_sum.jobs_submitted += 1;
    jobs_sum.queries_completed += job.queries_completed;
    jobs_sum.queries_shed += job.queries_shed;
    jobs_sum.preemptions += job.preemptions;
    jobs_sum.backfill_chunks += job.backfill_chunks;
    std::size_t completed = 0;
    std::size_t shed = 0;
    for (std::size_t id = spec.query_begin; id < spec.query_end; ++id) {
      const serve::QueryOutcome& outcome = result.outcomes[id];
      MSP_CHECK_MSG(!(outcome.shed && outcome.complete_s >= 0.0),
                    "query " << id << " both shed and completed");
      if (outcome.complete_s >= 0.0) ++completed;
      if (outcome.shed) ++shed;
    }
    MSP_CHECK_MSG(completed == job.queries_completed &&
                      shed == job.queries_shed &&
                      completed + shed == spec.query_count(),
                  "job " << spec.name << ": outcomes show " << completed
                         << " completed + " << shed << " shed, the job "
                         << job.queries_completed << " + " << job.queries_shed
                         << ", of " << spec.query_count() << " queries");
  }
  TenantAccounting tenants_sum;
  for (const TenantAccounting& tenant : result.tenants) {
    tenants_sum.jobs_submitted += tenant.jobs_submitted;
    tenants_sum.queries_completed += tenant.queries_completed;
    tenants_sum.queries_shed += tenant.queries_shed;
    tenants_sum.preemptions += tenant.preemptions;
    tenants_sum.backfill_chunks += tenant.backfill_chunks;
  }
  const auto ledger = [](const TenantAccounting& t) {
    return std::tie(t.jobs_submitted, t.queries_completed, t.queries_shed,
                    t.preemptions, t.backfill_chunks);
  };
  MSP_CHECK_MSG(ledger(tenants_sum) == ledger(jobs_sum),
                "tenant accounting does not balance against the per-job sums");
  MSP_CHECK_MSG(result.completed == jobs_sum.queries_completed &&
                    result.shed == jobs_sum.queries_shed &&
                    result.preemptions == jobs_sum.preemptions &&
                    result.backfill_chunks == jobs_sum.backfill_chunks,
                "run totals do not balance against the per-job sums");
}

}  // namespace

SchedResult run_sched(const sim::Runtime& runtime,
                      const std::string& fasta_image,
                      const std::vector<Spectrum>& queries,
                      const SearchConfig& config,
                      const SchedOptions& options) {
  validate(queries, options);
  const SearchEngine engine(config);

  // Each serve job's arrival schedule, on the global virtual clock — a pure
  // function of its spec.
  std::vector<std::vector<double>> serve_arrivals(options.jobs.size());
  for (std::size_t j = 0; j < options.jobs.size(); ++j) {
    const JobSpec& job = options.jobs[j];
    if (job.kind != JobKind::kServe) continue;
    serve_arrivals[j] = serve::make_arrivals(job.arrivals, job.query_count());
    for (double& t : serve_arrivals[j]) t += job.submit_s;
  }

  QueryHits all_hits(queries.size());
  BodyOutput output;
  sim::RunReport report = runtime.run([&](sim::Comm& comm) {
    sched_body(comm, fasta_image, queries, serve_arrivals, engine, options,
               all_hits, output);
  });

  SchedResult result;
  result.report = std::move(report);
  result.hits = std::move(all_hits);
  result.outcomes = std::move(output.outcomes);
  result.batch_routes = std::move(output.batch_routes);
  result.jobs = std::move(output.jobs);
  result.tenants = std::move(output.tenants);
  result.batches = output.batches;
  result.preemptions = output.preemptions;
  result.backfill_chunks = output.backfill_chunks;
  result.backfill_busy_s = output.backfill_busy_s;
  result.ring_steps = output.ring_steps;

  for (const serve::QueryOutcome& outcome : result.outcomes) {
    if (outcome.shed) ++result.shed;
    if (outcome.complete_s < 0.0) continue;
    ++result.completed;
    result.makespan_s = std::max(result.makespan_s, outcome.complete_s);
  }
  for (const JobOutcome& job : result.jobs)
    result.makespan_s = std::max(result.makespan_s, job.complete_s);
  if (result.makespan_s > 0.0)
    result.throughput_qps =
        static_cast<double>(result.completed) / result.makespan_s;

  // Per-tenant serve latency and throughput, from the same outcomes the
  // serve layer summarizes — comparable numbers by construction.
  for (TenantAccounting& tenant : result.tenants) {
    std::vector<double> latencies;
    for (std::size_t j = 0; j < result.jobs.size(); ++j) {
      const JobOutcome& job = result.jobs[j];
      if (job.tenant != tenant.name || job.kind != JobKind::kServe) continue;
      const JobSpec& spec = options.jobs[j];
      for (std::size_t id = spec.query_begin; id < spec.query_end; ++id) {
        const serve::QueryOutcome& outcome = result.outcomes[id];
        if (outcome.complete_s < 0.0) continue;
        latencies.push_back(outcome.complete_s - outcome.arrival_s);
      }
    }
    tenant.serve_latency = serve::summarize_latencies(std::move(latencies));
    if (result.makespan_s > 0.0)
      tenant.throughput_qps =
          static_cast<double>(tenant.queries_completed) / result.makespan_s;
  }
  check_conservation(options, result);
  return result;
}

}  // namespace msp::sched
