// mspar_cli: the end-user command-line tool.
//
//   mspar_cli [search] --db proteins.fasta --queries spectra.mgf
//             --out hits.tsv --algorithm a --p 16 --tau 10 --tolerance 3.0
//   mspar_cli serve --synth-db 4000 --synth-queries 120 --rate 200
//             --mode multi --out hits.tsv
//   mspar_cli sched --synth-db 4000 --synth-queries 360 --p 16
//             --serve-queries 48 --out hits.tsv
//
// `search` (the default subcommand) answers the whole query set at once
// through one of the batch drivers; `serve` plays the queries as an online
// arrival stream through the continuous-ring service and reports virtual
// completion-latency percentiles; `sched` runs a two-tenant job mix (one
// serve session plus one backfilled batch job) through the cluster
// scheduler and reports per-tenant accounting. With --synth-db N and/or
// --synth-queries M any subcommand generates synthetic inputs instead of
// reading files.
//
// Exit codes: 0 on success (including --help), 2 for unknown subcommands,
// unknown flags, or malformed values (usage goes to stderr), 1 for runtime
// failures (unreadable inputs, unrecoverable fault schedules, ...).
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string_view>

#include "core/candidate_record.hpp"
#include "core/pipeline.hpp"
#include "dbgen/protein_gen.hpp"
#include "dbgen/query_gen.hpp"
#include "io/fasta.hpp"
#include "io/mgf.hpp"
#include "io/results_io.hpp"
#include "mass/ptm.hpp"
#include "sched/scheduler.hpp"
#include "scoring/kernel.hpp"
#include "serve/service.hpp"
#include "util/cli.hpp"
#include "util/str.hpp"
#include "util/table.hpp"

namespace {

constexpr int kUsageError = 2;

void add_input_options(msp::Cli& cli) {
  cli.add_string("db", "", "input FASTA database (omit with --synth-db)");
  cli.add_string("queries", "",
                 "input MGF spectra (omit with --synth-queries)");
  cli.add_string("out", "hits.tsv", "output TSV hit report");
  cli.add_int("tau", 10, "hits reported per query");
  cli.add_double("tolerance", 3.0, "parent mass tolerance (Da)");
  cli.add_string("model", "likelihood",
                 "likelihood|hyperscore|shared-peak|xcorr");
  cli.add_string("score-model", "",
                 "alias of --model (takes precedence when set)");
  cli.add_string("scoring-backend", "auto",
                 "scoring kernel backend: auto|scalar|simd (simd requires a "
                 "build with -DMSPAR_SIMD=ON; results are bit-identical "
                 "either way)");
  cli.add_double("open-window-da", 0.0,
                 "widen the precursor window by this many Da on each side "
                 "(open search; 0 = narrow)");
  cli.add_string("ptm-set", "",
                 "comma-separated variable modifications widening the "
                 "window: phospho-s|phospho-t|phospho-st|oxidation-m|"
                 "acetyl-k");
  cli.add_int("synth-db", 0, "generate this many synthetic proteins");
  cli.add_int("synth-queries", 0, "generate this many synthetic spectra");
  cli.add_int("seed", 1, "seed for synthetic inputs");
}

/// Parse --ptm-set into Ptm rules; unknown names are usage errors.
std::vector<msp::Ptm> ptms_from_cli(const msp::Cli& cli) {
  std::vector<msp::Ptm> rules;
  for (const std::string& name : msp::split(cli.get_string("ptm-set"), ',')) {
    if (name.empty()) continue;
    if (name == "phospho-s") {
      rules.push_back(msp::ptm_phospho_s());
    } else if (name == "phospho-t") {
      rules.push_back(msp::ptm_phospho_t());
    } else if (name == "phospho-st") {
      rules.push_back(msp::ptm_phospho_s());
      rules.push_back(msp::ptm_phospho_t());
    } else if (name == "oxidation-m") {
      rules.push_back(msp::ptm_oxidation_m());
    } else if (name == "acetyl-k") {
      rules.push_back(msp::ptm_acetyl_k());
    } else {
      throw msp::InvalidArgument("unknown --ptm-set entry '" + name + "'");
    }
  }
  return rules;
}

/// Apply the shared open-search flags onto a SearchConfig.
void apply_open_options(const msp::Cli& cli, msp::SearchConfig& config) {
  config.open_window_da = cli.get_double("open-window-da");
  if (config.open_window_da < 0.0)
    throw msp::InvalidArgument("--open-window-da must be non-negative");
  config.ptms = ptms_from_cli(cli);
}

struct Inputs {
  std::string fasta_image;
  msp::ProteinDatabase db;
  std::vector<msp::Spectrum> queries;
};

Inputs load_inputs(const msp::Cli& cli) {
  Inputs inputs;
  if (cli.get_int("synth-db") > 0) {
    msp::ProteinGenOptions options = msp::microbial_like_options(1.0);
    options.sequence_count = static_cast<std::size_t>(cli.get_int("synth-db"));
    options.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    inputs.db = msp::generate_proteins(options);
    inputs.fasta_image = msp::to_fasta_string(inputs.db);
  } else {
    if (cli.get_string("db").empty())
      throw msp::InvalidArgument("need --db FILE or --synth-db N");
    std::ifstream in(cli.get_string("db"));
    if (!in) throw msp::IoError("cannot open " + cli.get_string("db"));
    inputs.fasta_image.assign((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    inputs.db = msp::read_fasta_string(inputs.fasta_image);
  }

  if (cli.get_int("synth-queries") > 0) {
    msp::QueryGenOptions options;
    options.query_count =
        static_cast<std::size_t>(cli.get_int("synth-queries"));
    options.seed = static_cast<std::uint64_t>(cli.get_int("seed")) + 1;
    inputs.queries = msp::spectra_of(msp::generate_queries(inputs.db, options));
  } else {
    if (cli.get_string("queries").empty())
      throw msp::InvalidArgument("need --queries FILE or --synth-queries M");
    inputs.queries = msp::read_mgf_file(cli.get_string("queries"));
  }
  return inputs;
}

msp::ScoreModel score_model_from_cli(const msp::Cli& cli) {
  const std::string alias = cli.get_string("score-model");
  const std::string model = alias.empty() ? cli.get_string("model") : alias;
  if (model == "likelihood") return msp::ScoreModel::kLikelihood;
  if (model == "hyperscore") return msp::ScoreModel::kHyperscore;
  if (model == "shared-peak") return msp::ScoreModel::kSharedPeak;
  if (model == "xcorr") return msp::ScoreModel::kXcorr;
  throw msp::InvalidArgument("unknown --model " + model);
}

/// Apply --scoring-backend to the process-global kernel backend switch.
void apply_scoring_backend(const msp::Cli& cli) {
  const std::string backend = cli.get_string("scoring-backend");
  if (backend == "auto") {
    msp::set_scoring_backend(msp::ScoringBackend::kAuto);
  } else if (backend == "scalar") {
    msp::set_scoring_backend(msp::ScoringBackend::kScalar);
  } else if (backend == "simd") {
    msp::set_scoring_backend(msp::ScoringBackend::kSimd);
  } else {
    throw msp::InvalidArgument("unknown --scoring-backend " + backend);
  }
}

int run_search(int argc, const char* const* argv) {
  msp::Cli cli("mspar_cli search",
               "parallel peptide identification (ICPP'09 repro)");
  add_input_options(cli);
  cli.add_string("algorithm", "a", "serial|a|b|hybrid|master-worker|query");
  cli.add_int("p", 8, "simulated processor count");
  cli.add_string("candidates", "prefix-suffix", "prefix-suffix|tryptic");
  if (!cli.parse(argc, argv)) return 0;

  const Inputs inputs = load_inputs(cli);

  msp::PipelineOptions options;
  options.algorithm = msp::algorithm_from_name(cli.get_string("algorithm"));
  options.p = static_cast<int>(cli.get_int("p"));
  options.config.tau = static_cast<std::size_t>(cli.get_int("tau"));
  options.config.tolerance_da = cli.get_double("tolerance");
  options.config.model = score_model_from_cli(cli);
  apply_scoring_backend(cli);
  apply_open_options(cli, options.config);
  const std::string candidates = cli.get_string("candidates");
  if (candidates == "tryptic")
    options.config.candidate_mode = msp::CandidateMode::kTryptic;
  else if (candidates != "prefix-suffix")
    throw msp::InvalidArgument("unknown --candidates " + candidates);

  std::cout << "searching " << msp::group_digits(inputs.db.sequence_count())
            << " proteins with " << inputs.queries.size() << " spectra ("
            << msp::algorithm_name(options.algorithm) << ", p=" << options.p
            << ")...\n";
  const msp::PipelineResult result =
      msp::run_pipeline(inputs.fasta_image, inputs.queries, options);

  const auto records = msp::to_hit_records(inputs.queries, result.hits);
  msp::write_hits_file(cli.get_string("out"), records);
  std::cout << "wrote " << records.size() << " hits to "
            << cli.get_string("out") << '\n';
  if (options.algorithm != msp::Algorithm::kSerial) {
    std::cout << "simulated run-time: " << result.run_seconds
              << " s on p=" << options.p << "; candidates evaluated: "
              << msp::group_digits(result.candidates) << '\n';
  }
  return 0;
}

int run_serve(int argc, const char* const* argv) {
  msp::Cli cli("mspar_cli serve",
               "online peptide-identification service (virtual clock)");
  add_input_options(cli);
  cli.add_int("p", 8, "simulated processor count");
  cli.add_string("arrival", "poisson", "uniform|poisson|burst");
  cli.add_double("rate", 200.0, "arrival rate (queries per virtual second)");
  cli.add_string("mode", "multi",
                 "dispatch: multi (continuous ring) | naive (batch-at-a-time)");
  cli.add_int("batch", 8, "batcher size-close threshold");
  cli.add_double("wait-ms", 20.0, "batcher deadline close (virtual ms)");
  cli.add_int("outstanding", 512, "admission cap (queued + in-flight)");
  cli.add_string("overload", "delay", "overload policy: shed|delay");
  cli.add_flag("no-routing",
               "disable mass-aware shard routing (visit every band; "
               "hits are bit-identical either way)");
  if (!cli.parse(argc, argv)) return 0;

  const Inputs inputs = load_inputs(cli);

  msp::SearchConfig config;
  config.tau = static_cast<std::size_t>(cli.get_int("tau"));
  config.tolerance_da = cli.get_double("tolerance");
  config.model = score_model_from_cli(cli);
  apply_scoring_backend(cli);
  apply_open_options(cli, config);
  // The banded serving ring stores candidates as fixed-width records
  // (core/candidate_record.hpp), which cap peptide length at 63 residues.
  const std::size_t record_cap = sizeof(msp::CandidateRecord{}.peptide) - 1;
  if (config.max_candidate_length > record_cap) {
    std::cout << "note: serving mode caps candidate length at " << record_cap
              << " residues (was " << config.max_candidate_length << ")\n";
    config.max_candidate_length = record_cap;
  }

  msp::serve::ServiceOptions options;
  options.arrivals.kind =
      msp::serve::arrival_kind_from_name(cli.get_string("arrival"));
  options.arrivals.rate_qps = cli.get_double("rate");
  options.arrivals.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  options.batch.max_batch = static_cast<std::size_t>(cli.get_int("batch"));
  options.batch.max_wait_s = cli.get_double("wait-ms") * 1e-3;
  options.admission.max_outstanding =
      static_cast<std::size_t>(cli.get_int("outstanding"));
  options.admission.overload =
      msp::serve::overload_policy_from_name(cli.get_string("overload"));
  options.mode = msp::serve::dispatch_mode_from_name(cli.get_string("mode"));
  options.mass_routing = !cli.flag("no-routing");

  std::cout << "serving " << inputs.queries.size() << " spectra at "
            << options.arrivals.rate_qps << " q/s against "
            << msp::group_digits(inputs.db.sequence_count()) << " proteins ("
            << msp::serve::dispatch_mode_name(options.mode)
            << ", p=" << cli.get_int("p") << ")...\n";
  const msp::sim::Runtime runtime(static_cast<int>(cli.get_int("p")));
  const msp::serve::ServiceResult result = msp::serve::run_service(
      runtime, inputs.fasta_image, inputs.queries, config, options);

  const auto records = msp::to_hit_records(inputs.queries, result.hits);
  msp::write_hits_file(cli.get_string("out"), records);
  std::cout << "wrote " << records.size() << " hits to "
            << cli.get_string("out") << '\n';
  std::cout << "completed " << result.completed << "/"
            << inputs.queries.size() << " queries (" << result.shed
            << " shed) in " << result.batches << " batches, "
            << result.ring_steps << " ring steps\n";
  if (options.mass_routing)
    std::cout << "routing: skipped " << result.steps_skipped << "/"
              << result.steps_visited + result.steps_skipped
              << " scoring slots (skip ratio "
              << msp::Table::cell(result.skip_ratio, 2) << ")\n";
  std::cout << "throughput: " << msp::Table::cell(result.throughput_qps, 1)
            << " q/s; latency p50/p95/p99: "
            << msp::Table::cell(result.latency.p50) << "/"
            << msp::Table::cell(result.latency.p95) << "/"
            << msp::Table::cell(result.latency.p99) << " s (virtual)\n";
  return 0;
}

int run_sched(int argc, const char* const* argv) {
  msp::Cli cli("mspar_cli sched",
               "multi-tenant scheduler: serve session + backfilled batch job");
  add_input_options(cli);
  cli.add_int("p", 8, "simulated processor count");
  cli.add_int("serve-queries", 0,
              "queries owned by the serve tenant (0 = one third)");
  cli.add_string("arrival", "burst", "uniform|poisson|burst");
  cli.add_double("rate", 200.0, "arrival rate (queries per virtual second)");
  cli.add_int("burst", 8, "serve arrivals per burst");
  cli.add_double("burst-gap-ms", 200.0, "virtual ms between serve bursts");
  cli.add_int("chunk", 8, "batch queries per backfill chunk");
  cli.add_int("inflight-chunks", 2, "max batch chunks in flight");
  cli.add_flag("no-backfill",
               "strict partition: batch waits until serve drains");
  cli.add_flag("no-preempt", "never evict batch chunks for serve batches");
  if (!cli.parse(argc, argv)) return 0;

  const Inputs inputs = load_inputs(cli);

  msp::SearchConfig config;
  config.tau = static_cast<std::size_t>(cli.get_int("tau"));
  config.tolerance_da = cli.get_double("tolerance");
  config.model = score_model_from_cli(cli);
  apply_scoring_backend(cli);
  apply_open_options(cli, config);
  const std::size_t record_cap = sizeof(msp::CandidateRecord{}.peptide) - 1;
  if (config.max_candidate_length > record_cap)
    config.max_candidate_length = record_cap;

  const std::size_t total = inputs.queries.size();
  std::size_t serve_count =
      static_cast<std::size_t>(cli.get_int("serve-queries"));
  if (serve_count == 0) serve_count = total / 3;
  if (serve_count == 0 || serve_count >= total)
    throw msp::InvalidArgument(
        "--serve-queries must leave queries for both tenants");

  msp::sched::SchedOptions options;
  options.tenants = {{"frontend", 2.0, 0}, {"analytics", 1.0, 0}};
  options.backfill = !cli.flag("no-backfill");
  options.preempt = !cli.flag("no-preempt");
  options.chunk_queries = static_cast<std::size_t>(cli.get_int("chunk"));
  options.max_inflight_chunks =
      static_cast<std::size_t>(cli.get_int("inflight-chunks"));

  msp::sched::JobSpec serve_job;
  serve_job.name = "stream";
  serve_job.tenant = "frontend";
  serve_job.kind = msp::sched::JobKind::kServe;
  serve_job.priority = msp::sched::Priority::kHigh;
  serve_job.submit_s = 0.0;
  serve_job.query_begin = 0;
  serve_job.query_end = serve_count;
  serve_job.arrivals.kind =
      msp::serve::arrival_kind_from_name(cli.get_string("arrival"));
  serve_job.arrivals.rate_qps = cli.get_double("rate");
  serve_job.arrivals.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  serve_job.arrivals.burst_size = static_cast<std::size_t>(cli.get_int("burst"));
  serve_job.arrivals.burst_gap_s = cli.get_double("burst-gap-ms") * 1e-3;
  serve_job.batch.max_batch = serve_job.arrivals.burst_size;
  options.jobs.push_back(serve_job);

  msp::sched::JobSpec batch_job;
  batch_job.name = "scan";
  batch_job.tenant = "analytics";
  batch_job.kind = msp::sched::JobKind::kBatch;
  batch_job.priority = msp::sched::Priority::kLow;
  batch_job.submit_s = 0.0;
  batch_job.query_begin = serve_count;
  batch_job.query_end = total;
  options.jobs.push_back(batch_job);

  std::cout << "scheduling " << serve_count << " serve + "
            << total - serve_count << " batch queries against "
            << msp::group_digits(inputs.db.sequence_count()) << " proteins (p="
            << cli.get_int("p") << ", backfill "
            << (options.backfill ? "on" : "off") << ", preempt "
            << (options.preempt ? "on" : "off") << ")...\n";
  const msp::sim::Runtime runtime(static_cast<int>(cli.get_int("p")));
  const msp::sched::SchedResult result = msp::sched::run_sched(
      runtime, inputs.fasta_image, inputs.queries, config, options);

  const auto records = msp::to_hit_records(inputs.queries, result.hits);
  msp::write_hits_file(cli.get_string("out"), records);
  std::cout << "wrote " << records.size() << " hits to "
            << cli.get_string("out") << '\n';
  std::cout << "completed " << result.completed << "/" << total
            << " queries (" << result.shed << " shed) in " << result.batches
            << " ring flights, " << result.ring_steps << " steps; "
            << result.backfill_chunks << " backfill chunks, "
            << result.preemptions << " preemptions\n";
  std::cout << "makespan " << msp::Table::cell(result.makespan_s)
            << " s (virtual); backfill busy "
            << msp::Table::cell(result.backfill_busy_s) << " s\n";

  msp::Table table({"tenant", "jobs", "done", "shed", "chunks", "preempt",
                    "usage", "q/s", "p99 (s)"});
  for (const msp::sched::TenantAccounting& tenant : result.tenants) {
    table.add_row({tenant.name, msp::Table::cell(tenant.jobs_completed),
                   msp::Table::cell(tenant.queries_completed),
                   msp::Table::cell(tenant.queries_shed),
                   msp::Table::cell(tenant.backfill_chunks),
                   msp::Table::cell(tenant.preemptions),
                   msp::Table::cell(tenant.usage_end, 1),
                   msp::Table::cell(tenant.throughput_qps, 1),
                   tenant.serve_latency.count == 0
                       ? std::string("-")
                       : msp::Table::cell(tenant.serve_latency.p99)});
  }
  table.print(std::cout);
  return 0;
}

/// The subcommand registry: the single source of truth main() dispatches
/// from and print_usage() renders, so the usage text can never drift from
/// the set of subcommands that actually parse.
struct Subcommand {
  const char* name;
  const char* summary;
  int (*run)(int argc, const char* const* argv);
};

constexpr Subcommand kSubcommands[] = {
    {"search", "one-shot batch identification (default subcommand)",
     run_search},
    {"serve", "online arrival-stream service with latency accounting",
     run_serve},
    {"sched", "multi-tenant job mix through the cluster scheduler", run_sched},
};

void print_usage(std::ostream& os) {
  os << "usage: mspar_cli [";
  std::size_t width = 0;
  for (const Subcommand& sub : kSubcommands) {
    if (&sub != kSubcommands) os << '|';
    os << sub.name;
    width = std::max(width, std::string_view(sub.name).size());
  }
  os << "] [--options]\n";
  for (const Subcommand& sub : kSubcommands)
    os << "  " << sub.name << std::string(width - std::string_view(sub.name).size(), ' ')
       << "   " << sub.summary << '\n';
  os << "run 'mspar_cli <subcommand> --help' for the subcommand's options\n";
}

}  // namespace

int main(int argc, char** argv) {
  // Optional leading subcommand; bare flags mean `search` (the historical
  // interface). Everything after the subcommand is parsed by it.
  std::string command = "search";
  int skip = 0;
  if (argc > 1 && argv[1][0] != '-') {
    command = argv[1];
    skip = 1;
  }

  std::vector<const char*> args;
  args.push_back(argv[0]);
  for (int i = 1 + skip; i < argc; ++i) args.push_back(argv[i]);
  const int sub_argc = static_cast<int>(args.size());

  try {
    for (const Subcommand& sub : kSubcommands)
      if (command == sub.name) return sub.run(sub_argc, args.data());
    std::cerr << "error: unknown subcommand '" << command << "'\n";
    print_usage(std::cerr);
    return kUsageError;
  } catch (const msp::InvalidArgument& error) {
    std::cerr << "error: " << error.what() << '\n';
    print_usage(std::cerr);
    return kUsageError;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
}
