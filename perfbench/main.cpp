// mspbench: one workload of the two-clock benchmark per process.
//
//   mspbench --workload batch-wide --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics (host clock: medians over timed
// passes; virtual clock: exact). --trace 1 prints the per-layer metrics
// from the serial layer replay, the simmpi and kernel microbenches, the
// program's virtual-clock counters, and the tracing overhead. The last
// stdout line is one JSON object; see README.md for every field.
//
//   mspbench --workload batch-wide --seed 1 --setup-only 1
//
// times the set-up alone, in this fresh process, and prints
// {"setup_cold_s": ...}; run.py takes setup_s as the median over several
// such processes plus the measuring run's own set-up.
#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/search_engine.hpp"
#include "perfbench.hpp"
#include "scoring/kernel.hpp"
#include "serve/slo.hpp"
#include "simmpi/trace_validate.hpp"

#ifndef MSPBENCH_BUILD_FLAGS
#define MSPBENCH_BUILD_FLAGS "unknown"
#endif

namespace pb {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  int trace = 0;
  double scale = 1.0;
  bool setup_only = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    require(i + 1 < argc, "flag " + flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = std::stoi(value);
    else if (flag == "--scale") args.scale = std::stod(value);
    else if (flag == "--setup-only") args.setup_only = std::stoi(value) != 0;
    else throw BenchFailure("unknown flag " + flag);
  }
  require(!args.workload.empty(), "--workload is required");
  require(args.trace == 0 || args.trace == 1, "--trace must be 0 or 1");
  require(args.seconds > 0.0 && args.scale > 0.0,
          "--seconds and --scale must be positive");
  return args;
}

double percentile(std::vector<double> values, double q) {
  require(!values.empty(), "percentile of no samples");
  std::sort(values.begin(), values.end());
  return msp::serve::percentile_sorted(values, q);
}

const char* backend_name(msp::ScoringBackend backend) {
  switch (backend) {
    case msp::ScoringBackend::kScalar: return "scalar";
    case msp::ScoringBackend::kSimd: return "simd";
    case msp::ScoringBackend::kAuto: return "auto";
  }
  return "?";
}

/// The workload's own claims, checked on every run: a failed one fails the
/// run instead of reporting numbers that measure something else.
void check_claims(const Workload& w, const Pass& pass) {
  require(pass.shed == 0, w.name + ": queries were shed");
  require(pass.completed == pass.attempted,
          w.name + ": not every query was published");
  if (w.kind != Kind::kBatch)
    require(pass.latencies.size() >= 1000,
            w.name + ": fewer than 1000 latency samples per pass");
  if (w.kind == Kind::kSched) {
    require(pass.preemptions > 0, w.name + ": no chunk was preempted");
    require(pass.backfill_chunks > 0, w.name + ": no chunk was backfilled");
    require(pass.report.serve_idle_seconds() > 0.0,
            w.name + ": the serve tenant left no idle ring time");
    require(pass.makespan_s < pass.serve_complete_s,
            w.name + ": the batch tenant outlasted the serve stream, so its "
                     "span would measure the burst timetable");
  }
}

struct Rung {
  bool meets = false;
  double p99_s = 0.0;
};

/// One ladder rung: p99 within the limit, every query published, and the
/// backlog drained within the limit after the last arrival (it did not
/// grow without bound). Hits are checked against the oracle at every rung.
Rung evaluate_rung(const Workload& w, const Inputs& inputs,
                   const msp::QueryHits& oracle, double rate) {
  const Pass pass = run_pass(w, inputs, false, rate);
  const std::size_t missing = check_hits(pass, oracle);
  Rung rung;
  rung.p99_s = percentile(pass.latencies, 0.99);
  rung.meets = missing == 0 && pass.shed == 0 &&
               rung.p99_s <= w.latency_limit_s &&
               pass.makespan_s - pass.last_arrival_s <= w.latency_limit_s;
  return rung;
}

/// Highest ladder rate that meets the latency limit, on the stream's first
/// ladder_queries queries. The lowest rung must meet it and the highest
/// must not (the ladder brackets capacity); in between, a bisection over
/// the ascending ladder finds the boundary, which assumes that a rate
/// meeting the limit implies every lower rate does.
double max_rate(const Workload& w, const Inputs& inputs,
                const msp::QueryHits& oracle, std::ostringstream& meta) {
  const std::vector<double>& ladder = w.ladder;
  Inputs prefix;
  prefix.db = inputs.db;
  prefix.image = inputs.image;
  prefix.arrival_seed = inputs.arrival_seed;
  prefix.queries.assign(inputs.queries.begin(),
                        inputs.queries.begin() +
                            static_cast<std::ptrdiff_t>(w.ladder_queries));
  const msp::QueryHits prefix_oracle(
      oracle.begin(),
      oracle.begin() + static_cast<std::ptrdiff_t>(w.ladder_queries));
  const Rung bottom = evaluate_rung(w, prefix, prefix_oracle, ladder.front());
  require(bottom.meets, w.name + ": the ladder's lowest rate misses the "
                                 "latency limit");
  const Rung top = evaluate_rung(w, prefix, prefix_oracle, ladder.back());
  require(!top.meets, w.name + ": the ladder's highest rate meets the "
                               "latency limit, so it does not bracket "
                               "capacity");
  std::size_t lo = 0;
  std::size_t hi = ladder.size() - 1;
  double lo_p99 = bottom.p99_s;
  while (hi - lo > 1) {
    const std::size_t mid = (lo + hi) / 2;
    const Rung rung = evaluate_rung(w, prefix, prefix_oracle, ladder[mid]);
    if (rung.meets) {
      lo = mid;
      lo_p99 = rung.p99_s;
    } else {
      hi = mid;
    }
  }
  meta << ", \"ladder_queries\": " << w.ladder_queries
       << ", \"ladder_qps\": [" << ladder.front() << ", " << ladder.back()
       << "], \"latency_limit_s\": " << w.latency_limit_s
       << ", \"max_rate_p99_s\": " << lo_p99;
  return ladder[lo];
}

struct Timed {
  std::vector<double> wall_s;  ///< per pass
  std::vector<double> cpu_s;   ///< per pass, whole process
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

/// One timed pass, checked against the oracle and the warm-up pass's
/// virtual-clock fingerprint (identical passes must repeat exactly).
void timed_pass(const Workload& w, const Inputs& inputs,
                const msp::QueryHits& oracle, const std::string& expected,
                bool tracing, Timed& timed) {
  const double wall0 = wall_now();
  const double cpu0 = process_cpu_now();
  const Pass pass = run_pass(w, inputs, tracing);
  timed.cpu_s.push_back(process_cpu_now() - cpu0);
  timed.wall_s.push_back(wall_now() - wall0);
  timed.attempted += pass.attempted;
  timed.failed += pass.shed + check_hits(pass, oracle);
  require(fingerprint(pass) == expected,
          w.name + ": a pass's virtual-clock results differ from the "
                   "warm-up pass's");
  if (tracing) {
    const std::string problem =
        msp::sim::validate_chrome_trace(pass.report.to_chrome_trace());
    require(problem.empty(), w.name + ": trace invalid: " + problem);
  }
}

double per_rank_mean(const msp::sim::RunReport& report,
                     double msp::sim::RankStats::*field) {
  double total = 0.0;
  for (const msp::sim::RankStats& rank : report.ranks) total += rank.*field;
  return total / static_cast<double>(report.ranks.size());
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

int run(const Args& args) {
  const Workload w = make_workload(args.workload, args.scale);
  std::ostringstream meta;
  meta.precision(17);
  meta << "{\"workload\": \"" << w.name << "\", \"seed\": " << args.seed
       << ", \"scale\": " << args.scale << ", \"trace\": " << args.trace
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"p\": " << kRanks
       << ", \"kernel_threads\": " << w.config.kernel_threads
       << ", \"compiler\": \"" << __VERSION__ << "\""
       << ", \"simd_compiled\": "
       << (msp::simd_compiled() ? "true" : "false")
       << ", \"scoring_backend\": \""
       << backend_name(msp::active_scoring_backend()) << "\""
       << ", \"build_flags\": \"" << MSPBENCH_BUILD_FLAGS << "\""
       << ", \"sequences\": " << w.sequences << ", \"queries\": " << w.queries;

  // ---- set-up: inputs plus the discarded warm-up pass, once, cold -------
  const double setup_start = wall_now();
  const Inputs inputs = make_inputs(w, args.seed);
  const Pass warm = run_pass(w, inputs, false);
  const double setup_cold_s = wall_now() - setup_start;
  if (args.setup_only) {
    std::cout.precision(17);
    std::cout << "{\"setup_cold_s\": " << setup_cold_s << "}" << std::endl;
    return 0;
  }
  const msp::QueryHits oracle = oracle_hits(w, inputs);
  require(check_hits(warm, oracle) == 0, w.name + ": queries unpublished");
  check_claims(w, warm);
  const std::string expected = fingerprint(warm);

  Metrics metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  if (args.trace == 0) {
    Timed timed;
    const double deadline = wall_now() + args.seconds;
    while (timed.wall_s.size() < 3 || wall_now() < deadline)
      timed_pass(w, inputs, oracle, expected, false, timed);
    attempted = timed.attempted;
    failed = timed.failed;
    double cpu_total = 0.0;
    for (const double cpu : timed.cpu_s) cpu_total += cpu;

    const double queries = static_cast<double>(inputs.queries.size());
    metrics.add("host_qps", queries / median(timed.wall_s), "q/s");
    metrics.add("host_cpu_ms_per_query",
                1e3 * cpu_total / static_cast<double>(timed.attempted), "ms");
    metrics.add("rank_mem_peak_mb",
                static_cast<double>(warm.report.max_peak_memory()) / 1e6,
                "MB");
    metrics.add("virtual_makespan_s", warm.makespan_s, "s");
    metrics.add("virtual_latency_p50_s", percentile(warm.latencies, 0.50),
                "s");
    metrics.add("virtual_latency_p99_s", percentile(warm.latencies, 0.99),
                "s");
    const double rate =
        w.kind == Kind::kServe
            ? max_rate(w, inputs, oracle, meta)
            : static_cast<double>(warm.makespan_queries) / warm.makespan_s;
    metrics.add("virtual_max_rate_qps", rate, "q/s");
    meta << ", \"pass_wall_s\": [";
    for (std::size_t i = 0; i < timed.wall_s.size(); ++i)
      meta << (i == 0 ? "" : ", ") << timed.wall_s[i];
    meta << "]";
    if (w.kind == Kind::kSched)
      meta << ", \"serve_complete_s\": " << warm.serve_complete_s;
    meta << ", \"timed_passes\": " << timed.wall_s.size()
         << ", \"latency_samples\": " << warm.latencies.size();
  } else {
    // ---- layer replay: warm-up replay discarded, then medians ------------
    const msp::QueryHits search =
        msp::SearchEngine(w.config).search(inputs.db, inputs.queries);
    const double replay_deadline = wall_now() + 0.45 * args.seconds;
    std::vector<Replay> replays;
    while (replays.size() < 3 || wall_now() < replay_deadline) {
      replays.push_back(replay_layers(w, args.seed));
      const Replay& replay = replays.back();
      require(replay.hits == oracle && replay.hits == search,
              w.name + ": replay hits differ from SearchEngine::search");
      for (std::size_t q = 0; q < oracle.size(); ++q)
        require(replay.hits[q] == warm.hits[q],
                w.name + ": replay hits differ from the end-to-end pass");
      replays.back().hits.clear();
      attempted += inputs.queries.size();
    }
    replays.erase(replays.begin());
    std::map<std::string, double> layer_cpu;
    for (const auto& [name, _] : replays.front().cpu_s) {
      std::vector<double> samples;
      for (const Replay& replay : replays) samples.push_back(replay.cpu_s.at(name));
      layer_cpu[name] = median(samples);
    }
    auto layer = [&](const std::string& name) {
      const auto it = layer_cpu.find(name);
      return it == layer_cpu.end() ? 0.0 : it->second;
    };
    const Replay& replay = replays.front();

    const SimmpiMicro micro = simmpi_micro(0.1 * args.seconds);
    const double match_ns = kernel_match_ns(w, inputs, 0.05 * args.seconds);

    // ---- tracing overhead: untraced and traced passes alternate ----------
    Timed untraced;
    Timed traced;
    Timed discarded;  // the first traced pass allocates the span logs
    timed_pass(w, inputs, oracle, expected, true, discarded);
    const double deadline = wall_now() + 0.4 * args.seconds;
    while (traced.wall_s.size() < 2 || wall_now() < deadline) {
      timed_pass(w, inputs, oracle, expected, false, untraced);
      timed_pass(w, inputs, oracle, expected, true, traced);
    }
    attempted += untraced.attempted + traced.attempted + discarded.attempted;
    failed += untraced.failed + traced.failed + discarded.failed;

    double attributed = 0.0;
    for (const auto& [name, cpu] : layer_cpu)
      if (name != "dbgen.generate") attributed += cpu;

    const msp::sim::RunReport& report = warm.report;
    const double candidates =
        static_cast<double>(report.sum_counter("candidates"));
    const double visited =
        static_cast<double>(report.sum_counter("route_steps_visited"));
    const double skipped =
        static_cast<double>(report.sum_counter("route_steps_skipped"));

    std::vector<double> batch_wait;
    const std::size_t serving =
        w.kind == Kind::kSched ? w.serve_queries : warm.outcomes.size();
    for (std::size_t q = 0; q < serving; ++q) {
      const msp::serve::QueryOutcome& outcome = warm.outcomes[q];
      batch_wait.push_back(outcome.dispatch_s - outcome.admit_s);
    }
    double reclaimed = 0.0;
    if (w.kind == Kind::kSched) {
      // The serve tenant alone on the ring: its idle is what backfill can
      // reclaim (the bench_sched_mix definition, per rank).
      Workload serve_only = w;
      serve_only.sched.jobs.resize(1);
      serve_only.sched.tenants.resize(1);
      const Pass alone = run_pass(serve_only, inputs, false);
      reclaimed = ratio(warm.backfill_busy_s,
                        alone.report.serve_idle_seconds() / kRanks);
    }

    metrics.add("dbgen.generate_s", layer("dbgen.generate"), "s");
    metrics.add("core.partition.load_shard_s",
                layer("core.partition.load_shard"), "s");
    metrics.add("core.candidate_index.build_s",
                layer("core.candidate_index.build"), "s");
    metrics.add("core.candidate_index.entries",
                static_cast<double>(replay.index_entries), "count");
    metrics.add("core.candidate_record.enumerate_sort_s",
                layer("core.candidate_record.enumerate_sort"), "s");
    metrics.add("core.shard_map.histogram_build_s",
                layer("core.shard_map.histogram_build"), "s");
    metrics.add("core.fragment_index.build_s",
                layer("core.fragment_index.build"), "s");
    metrics.add("core.fragment_index.postings",
                static_cast<double>(replay.fragment_postings), "count");
    metrics.add("core.search_engine.prepare_s",
                layer("core.search_engine.prepare"), "s");
    metrics.add("core.search_engine.search_shard_s",
                layer("core.search_engine.search_shard"), "s");
    metrics.add("core.search_engine.finalize_s",
                layer("core.search_engine.finalize"), "s");
    metrics.add("scoring.kernel.match_ns", match_ns, "ns");
    metrics.add("core.search_engine.candidates_evaluated", candidates,
                "count");
    metrics.add("core.search_engine.ions_per_candidate",
                ratio(static_cast<double>(report.sum_counter("ions")),
                      candidates),
                "ratio");
    metrics.add("core.candidate_source.vote_survival_ratio",
                ratio(static_cast<double>(replay.evaluated),
                      static_cast<double>(replay.windowed)),
                "ratio");
    metrics.add("core.shard_map.skip_ratio", ratio(skipped, visited + skipped),
                "ratio");
    metrics.add("serve.ring_steps", warm.ring_steps, "count");
    metrics.add("serve.latency_samples",
                static_cast<double>(w.kind == Kind::kBatch
                                        ? 0
                                        : warm.latencies.size()),
                "count");
    metrics.add("serve.batch_wait_p99_s",
                batch_wait.empty() ? 0.0 : percentile(batch_wait, 0.99), "s");
    metrics.add("serve.idle_s", report.serve_idle_seconds() / kRanks, "s");
    metrics.add("sched.preemptions", static_cast<double>(warm.preemptions),
                "count");
    metrics.add("sched.backfill_chunks",
                static_cast<double>(warm.backfill_chunks), "count");
    metrics.add("sched.reclaimed_idle_ratio", reclaimed, "ratio");
    metrics.add("simmpi.compute_s",
                per_rank_mean(report, &msp::sim::RankStats::compute_seconds),
                "s");
    metrics.add("simmpi.residual_comm_s",
                per_rank_mean(report,
                              &msp::sim::RankStats::residual_comm_seconds),
                "s");
    metrics.add("simmpi.sync_wait_s",
                per_rank_mean(report, &msp::sim::RankStats::sync_wait_seconds),
                "s");
    metrics.add("simmpi.masking_efficiency", report.masking_efficiency(),
                "ratio");
    double bytes = 0.0;
    for (const msp::sim::RankStats& rank : report.ranks)
      bytes += static_cast<double>(rank.bytes_received);
    metrics.add("simmpi.bytes_moved", bytes, "B");
    metrics.add("simmpi.run_spawn_s", micro.run_spawn_s, "s");
    metrics.add("simmpi.barrier_ns", micro.barrier_ns, "ns");
    metrics.add("simmpi.send_recv_ns", micro.send_recv_ns, "ns");
    metrics.add("simmpi.rget_fence_ns", micro.rget_fence_ns, "ns");
    metrics.add("bench.attributed_cpu_ratio",
                ratio(attributed, median(untraced.cpu_s)), "ratio");
    metrics.add("bench.tracing_overhead_ratio",
                ratio(median(untraced.wall_s), median(traced.wall_s)),
                "ratio");
    meta << ", \"replays\": " << replays.size()
         << ", \"overhead_passes\": " << traced.wall_s.size();
  }
  meta << ", \"setup_cold_s\": " << setup_cold_s << "}";
  std::cout << "{\"correct\": true, \"attempted\": " << attempted
            << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics.json()
            << ", \"meta\": " << meta.str() << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  try {
    return pb::run(pb::parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "mspbench: FAILED: " << error.what() << "\n";
    return 1;
  }
}
