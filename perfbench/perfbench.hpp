// The two-clock benchmark's shared types: host clocks, workload
// definitions, one end-to-end pass, the layer replay and the simmpi
// microbench. See README.md in this directory for what each metric means.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/hit.hpp"
#include "mass/peptide.hpp"
#include "sched/scheduler.hpp"
#include "serve/service.hpp"
#include "simmpi/netmodel.hpp"
#include "simmpi/trace.hpp"
#include "spectra/spectrum.hpp"

namespace pb {

/// Rank threads of every simulated run: one per core of the 4-core
/// reference host, so the host clock measures work, not oversubscription.
inline constexpr int kRanks = 4;

// ---- host clocks -----------------------------------------------------------

double wall_now();            ///< steady clock, seconds
double process_cpu_now();     ///< user + sys of every thread, seconds
double median(std::vector<double> values);

/// Failed self-check of a workload: the run prints the reason and exits
/// non-zero instead of reporting numbers.
struct BenchFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};
void require(bool condition, const std::string& what);

/// Named metrics of one run, rendered with every digit.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  std::string json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

// ---- workloads -------------------------------------------------------------

enum class Kind { kBatch, kServe, kSched };

struct Workload {
  std::string name;
  Kind kind = Kind::kBatch;
  std::size_t sequences = 0;
  std::size_t queries = 0;
  msp::SearchConfig config;
  msp::sim::NetworkModel network;
  msp::serve::ServiceOptions service;  ///< kServe (arrivals.rate_qps = timed rate)
  msp::sched::SchedOptions sched;      ///< kSched
  std::size_t serve_queries = 0;       ///< kSched: ids [0, n) are the serve job's
  /// kServe: fixed offered-rate ladder (ascending) and the p99 latency
  /// limit virtual_max_rate_qps is judged against.
  std::vector<double> ladder;
  double latency_limit_s = 0.0;
  std::size_t ladder_queries = 0;  ///< rungs serve this prefix of the stream
  /// kServe: virtual time the first arrival is due. The ring is built
  /// before it takes traffic, so arrivals start after its set-up.
  double arrival_offset_s = 0.0;
};

/// The four workloads by name. `scale` shrinks the batch workloads' inputs
/// and the serving workloads' query streams, not their databases, so the
/// serving regimes (ladder bracket, preemption) hold at any scale; the
/// self-test runs at 0.25. Throws on an unknown name.
Workload make_workload(const std::string& name, double scale);

/// Inputs generated with the repository's own dbgen and io.
struct Inputs {
  msp::ProteinDatabase db;
  std::vector<msp::Spectrum> queries;
  std::string image;  ///< FASTA image the ranks chunk-load
  std::uint64_t arrival_seed = 0;  ///< Poisson arrival draws (serving)
};
Inputs make_inputs(const Workload& workload, std::uint64_t seed);

/// What one end-to-end entry call produced, normalized over the three
/// entry points.
struct Pass {
  msp::sim::RunReport report;
  msp::QueryHits hits;
  std::vector<msp::serve::QueryOutcome> outcomes;  ///< empty for kBatch
  /// Virtual completion latency of every completed serving query (every
  /// query for kBatch, where it is the makespan: all arrive at t = 0 and
  /// the job's hit report is complete when the job ends).
  std::vector<double> latencies;
  std::size_t attempted = 0;
  std::size_t completed = 0;
  std::size_t shed = 0;
  /// Virtual time to finish the workload's measured job: the whole run for
  /// kBatch and kServe; for kSched the batch tenant's job, from its submit
  /// to its last published query (the serve tenant's end is fixed by its
  /// burst timetable, so the run's overall end would not move with the
  /// scheduler's work).
  double makespan_s = 0.0;
  std::size_t makespan_queries = 0;  ///< queries published within makespan_s
  double serve_complete_s = 0.0;     ///< kSched: the serve job's end
  double last_arrival_s = 0.0;
  int ring_steps = 0;
  std::size_t preemptions = 0;
  std::size_t backfill_chunks = 0;
  double backfill_busy_s = 0.0;
};

/// One end-to-end pass: run_algorithm_a, run_service or run_sched on a
/// fresh kRanks-rank runtime. `rate_qps` > 0 overrides a serving
/// workload's offered rate (the ladder); `tracing` turns on the program's
/// virtual-clock span trace.
Pass run_pass(const Workload& workload, const Inputs& inputs, bool tracing,
              double rate_qps = 0.0);

/// Every virtual-clock quantity and count of a pass, for exact-repeat
/// checks across passes.
std::string fingerprint(const Pass& pass);

/// The serial engine's hits for the whole query set (the oracle).
msp::QueryHits oracle_hits(const Workload& workload, const Inputs& inputs);

/// Hits of every completed query equal the oracle bit for bit; returns the
/// number of queries that were not published.
std::size_t check_hits(const Pass& pass, const msp::QueryHits& oracle);

// ---- layer replay (replay.cpp) --------------------------------------------

/// Serial replay of a workload's inputs through the public layer calls,
/// each wrapped in a host span. Span times are process CPU seconds (the
/// replay runs one call at a time); counts are exact.
struct Replay {
  std::map<std::string, double> cpu_s;  ///< layer span name -> CPU seconds
  std::uint64_t index_entries = 0;
  std::uint64_t fragment_postings = 0;
  std::uint64_t windowed = 0;   ///< candidates inside a precursor window
  std::uint64_t evaluated = 0;  ///< candidates fully scored
  msp::QueryHits hits;
};
Replay replay_layers(const Workload& workload, std::uint64_t seed);

/// Mean host nanoseconds per match_ladder call over mass-matched
/// (query, candidate) pairs of the workload, median over repetitions.
double kernel_match_ns(const Workload& workload, const Inputs& inputs,
                       double budget_s);

// ---- simmpi primitives (micro.cpp) -----------------------------------------

struct SimmpiMicro {
  double run_spawn_s = 0.0;    ///< empty Runtime::run at kRanks
  double barrier_ns = 0.0;     ///< per Comm::barrier
  double send_recv_ns = 0.0;   ///< per send + matching recv
  double rget_fence_ns = 0.0;  ///< per Window::rget + wait + fence
};
SimmpiMicro simmpi_micro(double budget_s);

}  // namespace pb
