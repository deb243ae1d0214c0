// Driver-level parity dump: every parallel driver over one fixed dbgen
// fixture, in the configurations the sweep benches do not reach (open
// search, mask x routing at narrow and wide windows, a crash schedule, the
// serving ring's dispatch modes, the preempting scheduler mix). For each
// run it prints the label, the traced RunReport as JSON, the per-iteration
// CSV and a hex-float digest of every hit, so two builds can be compared
// with `cmp` (DESIGN.md §5e). Master–worker runs at p = 1 only: its per-rank
// timings at p > 1 depend on thread scheduling (DESIGN.md §5c).
//
//   ./build/bench/bench_driver_dump > dump.txt
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/algorithm_a.hpp"
#include "core/algorithm_b.hpp"
#include "core/algorithm_hybrid.hpp"
#include "core/candidate_store.hpp"
#include "core/master_worker.hpp"
#include "core/query_transport.hpp"
#include "dbgen/protein_gen.hpp"
#include "dbgen/query_gen.hpp"
#include "io/fasta.hpp"
#include "sched/scheduler.hpp"
#include "serve/service.hpp"
#include "simmpi/runtime.hpp"
#include "util/cli.hpp"

namespace {

using namespace msp;

struct Fixture {
  std::string image;
  std::vector<Spectrum> queries;
  SearchConfig config;

  Fixture() {
    ProteinGenOptions db_options;
    db_options.sequence_count = 36;
    db_options.mean_length = 110;
    db_options.seed = 6001;
    const ProteinDatabase db = generate_proteins(db_options);
    image = to_fasta_string(db);

    QueryGenOptions q_options;
    q_options.query_count = 36;
    q_options.seed = 6002;
    q_options.digest.min_length = 6;
    q_options.digest.max_length = 25;
    queries = spectra_of(generate_queries(db, q_options));

    config.tolerance_da = 3.0;
    config.tau = 6;
    config.min_candidate_length = 4;
    config.max_candidate_length = 60;
    config.model = ScoreModel::kLikelihood;
  }
};

sim::Runtime traced(int p, sim::FaultModel faults = {}) {
  sim::Runtime runtime(p, {}, {}, std::move(faults));
  runtime.enable_tracing();
  return runtime;
}

std::string hex(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

void dump(const std::string& label, const sim::RunReport& report,
          const QueryHits& hits) {
  std::cout << "=== " << label << "\n"
            << report.to_json() << "\n"
            << report.to_iteration_csv();
  for (std::size_t q = 0; q < hits.size(); ++q) {
    std::cout << "q" << q << ":";
    for (const Hit& hit : hits[q])
      std::cout << ' ' << hit.protein_id << '/' << hit.offset << '+'
                << hit.length << (hit.end == FragmentEnd::kPrefix ? 'b' : 'y')
                << '=' << hex(hit.score) << '@' << hex(hit.mass);
    std::cout << "\n";
  }
}

std::string on_off(bool on) { return on ? "on" : "off"; }

void dump_algorithm_a(const Fixture& f) {
  SearchConfig narrow = f.config;
  narrow.tolerance_da = 0.05;
  SearchConfig open = f.config;
  open.open_window_da = 200.0;
  open.min_fragment_votes = 3;
  open.candidate_source = CandidateSourceKind::kFragmentIndex;
  const std::vector<std::pair<std::string, const SearchConfig*>> configs = {
      {"3.0Da", &f.config}, {"0.05Da", &narrow}, {"open", &open}};
  for (const int p : {3, 4})
    for (const auto& [name, config] : configs)
      for (const bool mask : {true, false})
        for (const bool routing : {true, false}) {
          AlgorithmAOptions options;
          options.mask = mask;
          options.mass_routing = routing;
          const ParallelRunResult result = run_algorithm_a(
              traced(p), f.image, f.queries, *config, options);
          dump("A p=" + std::to_string(p) + " " + name +
                   " mask=" + on_off(mask) + " routing=" + on_off(routing),
               result.report, result.hits);
        }
  sim::FaultModel faults;
  faults.crash(1, 1);
  const ParallelRunResult crashed =
      run_algorithm_a(traced(4, faults), f.image, f.queries, f.config);
  dump("A p=4 crash(1,1)", crashed.report, crashed.hits);
}

void dump_batch_drivers(const Fixture& f) {
  HybridOptions hybrid;
  hybrid.groups = 2;
  const HybridResult h =
      run_algorithm_hybrid(traced(4), f.image, f.queries, f.config, hybrid);
  dump("hybrid p=4 g=2", h.report, h.hits);

  const AlgorithmBResult b =
      run_algorithm_b(traced(4), f.image, f.queries, f.config);
  dump("B p=4 mask=on", b.report, b.hits);

  const ParallelRunResult qt =
      run_query_transport(traced(4), f.image, f.queries, f.config);
  dump("query transport p=4", qt.report, qt.hits);

  const CandidateStoreResult store =
      run_candidate_store(traced(4), f.image, f.queries, f.config);
  dump("candidate store p=4", store.report, store.hits);

  const ParallelRunResult mw =
      run_master_worker(traced(1), f.image, f.queries, f.config);
  dump("master-worker p=1", mw.report, mw.hits);
}

void dump_serve(const Fixture& f) {
  for (const serve::DispatchMode mode :
       {serve::DispatchMode::kBatchAtATime,
        serve::DispatchMode::kMultiBatchRing})
    for (const bool routing : {true, false}) {
      serve::ServiceOptions options;
      options.arrivals.kind = serve::ArrivalKind::kPoisson;
      options.arrivals.rate_qps = 400.0;
      options.arrivals.seed = 77;
      options.batch.max_batch = 6;
      options.batch.max_wait_s = 0.02;
      options.mode = mode;
      options.mass_routing = routing;
      const serve::ServiceResult result =
          serve::run_service(traced(4), f.image, f.queries, f.config, options);
      dump(std::string("serve p=4 ") + serve::dispatch_mode_name(mode) +
               " routing=" + on_off(routing),
           result.report, result.hits);
    }
}

sched::JobSpec job(const std::string& name, const std::string& tenant,
                   sched::JobKind kind, sched::Priority priority,
                   std::size_t begin, std::size_t end) {
  sched::JobSpec spec;
  spec.name = name;
  spec.tenant = tenant;
  spec.kind = kind;
  spec.priority = priority;
  spec.submit_s = 0.0;
  spec.query_begin = begin;
  spec.query_end = end;
  return spec;
}

/// A high-priority bursty serve session submitted mid-flight evicts the
/// low-priority batch chunks backfill admitted at t = 0.
void dump_sched(const Fixture& f) {
  sched::SchedOptions options;
  options.tenants = {{"acme", 1.0, 0}, {"zeta", 2.0, 0}};
  sched::JobSpec frontend = job("frontend", "acme", sched::JobKind::kServe,
                                sched::Priority::kHigh, 0, 12);
  frontend.submit_s = 0.004;
  frontend.arrivals.kind = serve::ArrivalKind::kBurst;
  frontend.arrivals.burst_size = 6;
  frontend.arrivals.burst_gap_s = 0.05;
  frontend.batch.max_batch = 4;
  frontend.batch.max_wait_s = 0.02;
  frontend.admission.max_outstanding = 256;
  options.jobs.push_back(frontend);
  options.jobs.push_back(job("analytics", "zeta", sched::JobKind::kBatch,
                             sched::Priority::kLow, 12, 24));
  options.jobs.push_back(job("reproc", "acme", sched::JobKind::kBatch,
                             sched::Priority::kNormal, 24, 36));
  options.chunk_queries = 6;
  options.step_estimate_init_s = 1e-6;
  const sched::SchedResult result =
      sched::run_sched(traced(4), f.image, f.queries, f.config, options);
  dump("sched p=4 preempting mix", result.report, result.hits);
}

}  // namespace

int main(int argc, char** argv) {
  msp::Cli cli("bench_driver_dump",
               "print every driver's traced report and hit digest over a "
               "fixed fixture (parity dump for cmp)");
  if (!cli.parse(argc, argv)) return 0;
  const Fixture fixture;
  dump_algorithm_a(fixture);
  dump_batch_drivers(fixture);
  dump_serve(fixture);
  dump_sched(fixture);
  return 0;
}
