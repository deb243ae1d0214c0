#include "serve/service.hpp"

#include <algorithm>
#include <utility>

#include "sched/scheduler.hpp"

namespace msp::serve {

ServiceResult run_service(const sim::Runtime& runtime,
                          const std::string& fasta_image,
                          const std::vector<Spectrum>& queries,
                          const SearchConfig& config,
                          const ServiceOptions& options) {
  // A service session is a one-job mix: one tenant, one serve job that
  // submits at t = 0 and owns the whole stream.
  sched::SchedOptions mix;
  mix.tenants = {{"serve", 1.0, 0}};
  sched::JobSpec job;
  job.name = "serve";
  job.tenant = "serve";
  job.kind = sched::JobKind::kServe;
  job.submit_s = 0.0;
  job.query_begin = 0;
  job.query_end = queries.size();
  job.arrivals = options.arrivals;
  job.batch = options.batch;
  job.admission = options.admission;
  job.mode = options.mode;
  mix.jobs.push_back(std::move(job));
  mix.mass_routing = options.mass_routing;
  mix.route_bucket_da = options.route_bucket_da;

  sched::SchedResult run =
      sched::run_sched(runtime, fasta_image, queries, config, mix);

  ServiceResult result;
  result.candidates = run.report.sum_counter("candidates");
  result.report = std::move(run.report);
  result.hits = std::move(run.hits);
  result.outcomes = std::move(run.outcomes);
  result.batch_routes = std::move(run.batch_routes);
  result.shed = run.shed;
  result.batches = run.batches;
  result.ring_steps = run.ring_steps;
  for (const BatchRouteStats& route : result.batch_routes) {
    result.steps_visited += route.steps_visited;
    result.steps_skipped += route.steps_skipped;
  }
  if (result.steps_visited + result.steps_skipped > 0)
    result.skip_ratio =
        static_cast<double>(result.steps_skipped) /
        static_cast<double>(result.steps_visited + result.steps_skipped);

  // The makespan is the last publication, not the job's completion: when
  // the tail arrivals are shed, the job completes after it.
  std::vector<double> latencies;
  for (const QueryOutcome& outcome : result.outcomes) {
    if (outcome.complete_s < 0.0) continue;
    ++result.completed;
    latencies.push_back(outcome.complete_s - outcome.arrival_s);
    result.makespan_s = std::max(result.makespan_s, outcome.complete_s);
  }
  result.latency = summarize_latencies(std::move(latencies));
  if (result.makespan_s > 0.0)
    result.throughput_qps =
        static_cast<double>(result.completed) / result.makespan_s;
  return result;
}

}  // namespace msp::serve
