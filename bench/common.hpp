// Shared workload construction for the reproduction benches.
//
// Scaling convention (documented per-table in EXPERIMENTS.md): the paper
// ran 1,210 human spectra against up to 2.65M microbial proteins; we default
// to 120 synthetic spectra against up to 16K microbial-like proteins — a
// ~1:10 query scale and ~1:165 database scale — and expose CLI knobs to run
// larger. All timing columns are simulated-cluster virtual seconds (see
// src/simmpi), so the *relationships* between rows/columns are what carries
// over, not the absolute values.
#pragma once

#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/hit.hpp"
#include "dbgen/protein_gen.hpp"
#include "dbgen/query_gen.hpp"
#include "io/fasta.hpp"
#include "serve/service.hpp"
#include "simmpi/netmodel.hpp"
#include "simmpi/runtime.hpp"
#include "simmpi/trace.hpp"
#include "simmpi/trace_validate.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

namespace msp::bench {

struct Workload {
  ProteinDatabase db;          ///< full-size database (row subsets are prefixes)
  std::vector<Spectrum> queries;

  /// FASTA image of the first `sequences` proteins (the paper's "arbitrary
  /// subsets of sizes 1K, 2K, 4K, ..." are literal prefixes).
  std::string image_of_first(std::size_t sequences) const {
    ProteinDatabase subset;
    subset.proteins.assign(
        db.proteins.begin(),
        db.proteins.begin() +
            static_cast<long>(std::min(sequences, db.proteins.size())));
    return to_fasta_string(subset);
  }
};

inline Workload make_workload(std::size_t sequences, std::size_t query_count,
                              std::uint64_t seed = 2009) {
  Workload workload;
  ProteinGenOptions db_options = microbial_like_options(1.0);
  db_options.sequence_count = sequences;
  db_options.seed = seed;
  workload.db = generate_proteins(db_options);

  QueryGenOptions q_options;
  q_options.query_count = query_count;
  q_options.seed = seed + 1;
  q_options.digest.min_length = 6;
  q_options.digest.max_length = 30;
  workload.queries = spectra_of(generate_queries(workload.db, q_options));
  return workload;
}

/// The search configuration used by every timing bench (MSPolygraph-style
/// likelihood scoring; τ = 10 — the low end of the paper's 10..1000 range).
inline SearchConfig bench_config() {
  SearchConfig config;
  config.tolerance_da = 3.0;
  config.tau = 10;
  config.min_candidate_length = 6;
  config.max_candidate_length = 60;
  config.model = ScoreModel::kLikelihood;
  return config;
}

/// The simulated cluster matching Section III's testbed: 8 ranks per node,
/// gigabit interconnect. μ is calibrated as the *effective* per-stream
/// one-sided transfer rate of a 2009 TCP-based MPI stack (~22 MB/s); see
/// EXPERIMENTS.md for the calibration discussion.
inline sim::NetworkModel bench_network() {
  sim::NetworkModel network;
  network.latency_s = 50e-6;
  network.seconds_per_byte = 4.5e-8;
  network.shm_latency_s = 1e-6;
  network.shm_seconds_per_byte = 0.4e-9;
  network.ranks_per_node = 8;
  network.node_count = 24;  // the paper's 24-node cluster, cyclic placement
  return network;
}

inline sim::ComputeModel bench_compute() { return sim::ComputeModel{}; }

/// Standard CLI options shared by the sweep benches. Benches whose headline
/// metric needs a different amount of work (e.g. enough batch queries to
/// saturate backfill) can override the --queries default.
inline void add_common_options(Cli& cli, std::int64_t default_queries = 120) {
  cli.add_int("queries", default_queries, "number of synthetic query spectra");
  cli.add_string("procs", "1,2,4,8,16,32,64,128",
                 "comma-separated processor counts");
  cli.add_int("seed", 2009, "workload seed");
  cli.add_string("trace-out", "",
                 "write a Chrome trace-event JSON (+ .iterations.csv) of one "
                 "representative traced run to this path");
}

/// Abort unless every query published in `outcomes` carries exactly the
/// serial engine's hit list (score, protein, offset, length, ion end) and
/// every unpublished (shed) query carries none. `cell` names the run.
inline void check_published_hits(
    const QueryHits& got, const QueryHits& serial,
    const std::vector<serve::QueryOutcome>& outcomes, const std::string& cell) {
  MSP_CHECK_MSG(got.size() == serial.size() && outcomes.size() == serial.size(),
                cell << ": hit lists cover the wrong number of queries");
  for (std::size_t q = 0; q < serial.size(); ++q) {
    if (outcomes[q].complete_s < 0.0) {
      MSP_CHECK_MSG(got[q].empty(), cell << ": unpublished query " << q
                                         << " has hits");
      continue;
    }
    MSP_CHECK_MSG(got[q] == serial[q],
                  cell << ": query " << q
                       << " hit list differs from the serial engine");
  }
}

/// `base` with `.tag` inserted before the extension (or appended):
/// trace_path("t.json", "p8") == "t.p8.json". Lets a sweep bench emit one
/// trace file per configuration from a single --trace-out base path.
inline std::string trace_path_with_tag(const std::string& base,
                                       const std::string& tag) {
  const std::size_t dot = base.rfind('.');
  const std::size_t slash = base.rfind('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash))
    return base + "." + tag;
  return base.substr(0, dot) + "." + tag + base.substr(dot);
}

/// Write `report`'s span trace as Chrome trace-event JSON at `path` plus the
/// per-iteration CSV at `path + ".iterations.csv"` and the structured run
/// report at `path + ".report.json"` (RunReport::to_json — the same schema
/// for every bench). The trace is validated before it is written — an
/// export bug fails the bench, not the reader.
inline void write_trace_files(const sim::RunReport& report,
                              const std::string& path) {
  const std::string json = report.to_chrome_trace();
  const std::string problem = sim::validate_chrome_trace(json);
  MSP_CHECK_MSG(problem.empty(), "trace validation failed: " << problem);
  {
    std::ofstream out(path, std::ios::binary);
    MSP_CHECK_MSG(out.good(), "cannot open trace output " << path);
    out << json;
  }
  {
    std::ofstream out(path + ".iterations.csv", std::ios::binary);
    MSP_CHECK_MSG(out.good(),
                  "cannot open trace output " << path << ".iterations.csv");
    out << report.to_iteration_csv();
  }
  {
    std::ofstream out(path + ".report.json", std::ios::binary);
    MSP_CHECK_MSG(out.good(),
                  "cannot open trace output " << path << ".report.json");
    out << report.to_json();
  }
}

/// One-shot trace capture for a sweep bench: arms tracing on `runtime` when
/// --trace-out was given and `representative` holds (each bench picks one
/// cell of its sweep, typically the largest), then write() emits the trace
/// files once and disarms. Replaces the trace_this/enable/disable dance
/// every sweep bench used to hand-roll.
class TraceGate {
 public:
  TraceGate(sim::Runtime& runtime, std::string path, bool representative)
      : runtime_(runtime),
        path_(std::move(path)),
        armed_(!path_.empty() && representative) {
    if (armed_) runtime_.enable_tracing();
  }

  bool armed() const { return armed_; }

  /// Emit the trace files for `report` and disarm (idempotent).
  void write(const sim::RunReport& report) {
    if (!armed_) return;
    write_trace_files(report, path_);
    runtime_.enable_tracing(false);
    armed_ = false;
  }

 private:
  sim::Runtime& runtime_;
  std::string path_;
  bool armed_;
};

/// Write a bench's JSON summary (skipped when `path` is empty) and echo the
/// destination, the convention all sweep benches follow.
inline void write_json_summary(const std::string& path,
                               const std::string& json) {
  if (path.empty()) return;
  std::ofstream out(path, std::ios::binary);
  MSP_CHECK_MSG(out.good(), "cannot open JSON output " << path);
  out << json;
  std::cout << "wrote " << path << "\n";
}

/// Append `entry` (a JSON object) to the trajectory JSON array at `path`
/// (skipped when `path` is empty), creating the array on first write.
/// Textual append — strip the closing bracket, add the entry — so prior
/// entries pass through byte-identical and the file stays a valid array
/// after every run (the committed baseline entry is entry 0).
inline void append_trajectory(const std::string& path,
                              const std::string& entry) {
  if (path.empty()) return;
  std::string existing;
  {
    std::ifstream in(path, std::ios::binary);
    if (in)
      existing.assign((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  }
  while (!existing.empty() &&
         (existing.back() == '\n' || existing.back() == ' '))
    existing.pop_back();
  std::ofstream out(path, std::ios::binary);
  MSP_CHECK_MSG(out.good(), "cannot open JSON output " << path);
  if (existing.empty()) {
    out << "[\n" << entry << "\n]\n";
  } else {
    MSP_CHECK_MSG(existing.back() == ']',
                  "trajectory file " << path << " is not a JSON array");
    existing.pop_back();
    while (!existing.empty() &&
           (existing.back() == '\n' || existing.back() == ' '))
      existing.pop_back();
    out << existing << ",\n" << entry << "\n]\n";
  }
  std::cout << "appended to " << path << "\n";
}

}  // namespace msp::bench
