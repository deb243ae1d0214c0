// Online serving latency sweep: arrival rate × dispatch mode.
//
// The one-shot benches answer "how fast does p chew a fixed workload"; this
// bench answers the serving question: at a given offered load (queries per
// virtual second), what throughput does the service sustain and what
// completion latency do queries see? It sweeps the arrival rate against
// three dispatch policies —
//   naive   batch-at-a-time: a closed batch owns the ring for a full p-step
//           rotation; the next batch waits (the per-batch comm floor),
//   multi   continuous ring: every in-flight batch is scored during the
//           same rotation, amortizing one shard fetch + one fence per step
//           over all of them,
//   routed  multi plus mass-aware shard routing: the global shard mass map
//           skips ring steps whose shard provably holds no candidate for
//           any in-flight block (constant decision cost, no fetch, no
//           scoring) —
// and emits BENCH_serve.json with per-cell throughput, p50/p95/p99
// virtual-clock completion latency, and the router's audit trail
// (steps_visited / steps_skipped per batch, so the skip-ratio column can be
// re-derived from the per-batch rows), plus a head-to-head block at the
// saturating rate. The default precursor window is narrow (--tolerance),
// the regime mass routing exists for. Every cell's published hit lists are
// checked against the serial engine (SearchEngine::search); the bench
// aborts on any mismatch.
// All numbers are deterministic: the same invocation writes byte-identical
// JSON on every machine and kernel_threads setting.
#include <algorithm>
#include <iostream>

#include "bench/common.hpp"
#include "core/search_engine.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

struct Mode {
  const char* name;
  msp::serve::DispatchMode dispatch;
  bool mass_routing;
};

}  // namespace

int main(int argc, char** argv) {
  msp::Cli cli("bench_serve_latency",
               "online service: arrival rate x batch policy latency sweep");
  msp::bench::add_common_options(cli);
  cli.add_int("p", 16, "simulated ranks (the service runs on one ring)");
  cli.add_int("sequences", 4000, "database size (proteins)");
  cli.add_string("rates", "50,100,200,400",
                 "comma-separated arrival rates (queries per virtual second)");
  cli.add_string("arrival", "poisson",
                 "arrival process: uniform|poisson|burst");
  cli.add_int("batch", 8, "batcher size-close threshold (queries)");
  cli.add_double("wait-ms", 20.0, "batcher deadline close (virtual ms)");
  cli.add_int("outstanding", 512, "admission cap (queued + in-flight queries)");
  cli.add_string("overload", "delay", "overload policy: shed|delay");
  cli.add_double("tolerance", 0.05,
                 "precursor window half-width in Da (narrow by default — "
                 "the routing regime; pass 3.0 for the wide-window config "
                 "of the batch benches)");
  cli.add_string("out", "BENCH_serve.json", "JSON output path");
  if (!cli.parse(argc, argv)) return 0;

  const int p = static_cast<int>(cli.get_int("p"));
  const auto rates = cli.get_int_list("rates");
  const auto query_count = static_cast<std::size_t>(cli.get_int("queries"));
  const msp::bench::Workload workload = msp::bench::make_workload(
      static_cast<std::size_t>(cli.get_int("sequences")), query_count,
      static_cast<std::uint64_t>(cli.get_int("seed")));
  const std::string image = workload.image_of_first(
      static_cast<std::size_t>(cli.get_int("sequences")));
  msp::SearchConfig config = msp::bench::bench_config();
  config.tolerance_da = cli.get_double("tolerance");
  const msp::QueryHits serial = msp::SearchEngine(config).search(
      msp::read_fasta_string(image), workload.queries);

  msp::serve::ServiceOptions base;
  base.arrivals.kind =
      msp::serve::arrival_kind_from_name(cli.get_string("arrival"));
  base.arrivals.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  base.batch.max_batch = static_cast<std::size_t>(cli.get_int("batch"));
  base.batch.max_wait_s = cli.get_double("wait-ms") * 1e-3;
  base.admission.max_outstanding =
      static_cast<std::size_t>(cli.get_int("outstanding"));
  base.admission.overload =
      msp::serve::overload_policy_from_name(cli.get_string("overload"));

  const Mode modes[] = {
      {"naive", msp::serve::DispatchMode::kBatchAtATime, false},
      {"multi", msp::serve::DispatchMode::kMultiBatchRing, false},
      {"routed", msp::serve::DispatchMode::kMultiBatchRing, true},
  };
  constexpr int kModeCount = 3;

  msp::Table table({"rate (q/s)", "mode", "done", "shed", "steps", "skip%",
                    "thr (q/s)", "p50 (s)", "p95 (s)", "p99 (s)"});
  msp::JsonWriter json;
  json.begin_object();
  json.field("p", p);
  json.field("queries", query_count);
  json.field("arrival", cli.get_string("arrival"));
  json.field("batch_max", base.batch.max_batch);
  json.field("batch_wait_s", base.batch.max_wait_s);
  json.field("max_outstanding", base.admission.max_outstanding);
  json.field("overload", cli.get_string("overload"));
  json.field("tolerance_da", config.tolerance_da);
  json.key("cells").begin_array();

  // Per-(mode, top rate) results for the head-to-head summary.
  msp::serve::ServiceResult head_to_head[kModeCount];
  for (const auto rate : rates) {
    for (int m = 0; m < kModeCount; ++m) {
      msp::serve::ServiceOptions options = base;
      options.arrivals.rate_qps = static_cast<double>(rate);
      options.mode = modes[m].dispatch;
      options.mass_routing = modes[m].mass_routing;
      msp::sim::Runtime runtime(p, msp::bench::bench_network(),
                                msp::bench::bench_compute());
      // Trace the routed run at the saturating (last) rate.
      msp::bench::TraceGate trace(runtime, cli.get_string("trace-out"),
                                  rate == rates.back() && m == kModeCount - 1);
      msp::serve::ServiceResult result = msp::serve::run_service(
          runtime, image, workload.queries, config, options);
      trace.write(result.report);
      msp::bench::check_published_hits(
          result.hits, serial, result.outcomes,
          std::string(modes[m].name) + " at " + std::to_string(rate) + " q/s");

      table.add_row({std::to_string(rate), modes[m].name,
                     std::to_string(result.completed),
                     std::to_string(result.shed),
                     std::to_string(result.ring_steps),
                     msp::Table::cell(100.0 * result.skip_ratio, 1),
                     msp::Table::cell(result.throughput_qps, 1),
                     msp::Table::cell(result.latency.p50),
                     msp::Table::cell(result.latency.p95),
                     msp::Table::cell(result.latency.p99)});

      json.begin_object();
      json.field("rate_qps", static_cast<std::int64_t>(rate));
      json.field("mode", modes[m].name);
      json.field("mass_routing", modes[m].mass_routing);
      json.field("completed", result.completed);
      json.field("shed", result.shed);
      json.field("batches", result.batches);
      json.field("ring_steps", result.ring_steps);
      json.field("steps_visited", result.steps_visited);
      json.field("steps_skipped", result.steps_skipped);
      json.field("skip_ratio", result.skip_ratio);
      json.field("makespan_s", result.makespan_s);
      json.field("throughput_qps", result.throughput_qps);
      json.key("latency").begin_object();
      json.field("mean_s", result.latency.mean);
      json.field("p50_s", result.latency.p50);
      json.field("p95_s", result.latency.p95);
      json.field("p99_s", result.latency.p99);
      json.field("max_s", result.latency.max);
      json.end_object();
      // The audit trail the aggregate columns are derived from: one row
      // per published batch, so skip_ratio is re-checkable from the JSON.
      json.key("batch_routes").begin_array();
      for (const msp::serve::BatchRouteStats& route : result.batch_routes) {
        json.begin_object();
        json.field("batch_id", route.batch_id);
        json.field("steps_visited", route.steps_visited);
        json.field("steps_skipped", route.steps_skipped);
        json.end_object();
      }
      json.end_array();
      json.end_object();

      if (rate == rates.back()) head_to_head[m] = std::move(result);
    }
  }
  json.end_array();

  // Head-to-head at the saturating rate: the continuous ring must sustain a
  // multiple of the naive throughput, and mass routing a multiple of the
  // unrouted ring — the amortization and routing claims this bench exists
  // to measure. Hits match the serial engine in all three (checked above).
  const msp::serve::ServiceResult& naive = head_to_head[0];
  const msp::serve::ServiceResult& multi = head_to_head[1];
  const msp::serve::ServiceResult& routed = head_to_head[2];
  const double ratio = naive.throughput_qps > 0.0
                           ? multi.throughput_qps / naive.throughput_qps
                           : 0.0;
  const double routed_ratio = multi.throughput_qps > 0.0
                                  ? routed.throughput_qps / multi.throughput_qps
                                  : 0.0;
  json.key("sustained").begin_object();
  json.field("rate_qps", static_cast<std::int64_t>(rates.back()));
  json.field("naive_qps", naive.throughput_qps);
  json.field("multi_qps", multi.throughput_qps);
  json.field("routed_qps", routed.throughput_qps);
  json.field("throughput_ratio", ratio);
  json.field("routed_vs_multi", routed_ratio);
  json.field("skip_ratio", routed.skip_ratio);
  json.field("steps_visited", routed.steps_visited);
  json.field("steps_skipped", routed.steps_skipped);
  json.field("naive_p99_s", naive.latency.p99);
  json.field("multi_p99_s", multi.latency.p99);
  json.field("routed_p99_s", routed.latency.p99);
  json.field("multi_p99_no_worse", multi.latency.p99 <= naive.latency.p99);
  json.field("routed_p99_no_worse", routed.latency.p99 <= multi.latency.p99);
  json.end_object();
  json.end_object();

  std::cout << "== Online serving: arrival rate x dispatch mode (p = " << p
            << ", tolerance " << config.tolerance_da << " Da) ==\n";
  table.print(std::cout);
  std::cout << "sustained at " << rates.back()
            << " q/s: multi " << msp::Table::cell(multi.throughput_qps, 1)
            << " q/s vs naive " << msp::Table::cell(naive.throughput_qps, 1)
            << " q/s (" << msp::Table::cell(ratio, 2) << "x); routed "
            << msp::Table::cell(routed.throughput_qps, 1) << " q/s ("
            << msp::Table::cell(routed_ratio, 2) << "x multi, skip ratio "
            << msp::Table::cell(routed.skip_ratio, 2) << "), p99 "
            << msp::Table::cell(routed.latency.p99) << " s\n";

  msp::bench::write_json_summary(cli.get_string("out"), json.str());
  return 0;
}
