// Fault-injection validation: every deterministic fault schedule —
// stragglers, transient transfer failures, rank crashes — must still
// reproduce the serial engine's exact hit lists (the invariant
// core_parallel_test.cpp enforces for failure-free runs), the RunReport
// counters must match the injected schedule, and the whole fault layer
// must be bit-exactly zero-cost when no schedule is given.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "core/algorithm_a.hpp"
#include "core/algorithm_b.hpp"
#include "core/algorithm_hybrid.hpp"
#include "core/candidate_store.hpp"
#include "core/master_worker.hpp"
#include "core/partition.hpp"
#include "core/query_transport.hpp"
#include "core/search_engine.hpp"
#include "dbgen/protein_gen.hpp"
#include "dbgen/query_gen.hpp"
#include "io/fasta.hpp"
#include "simmpi/runtime.hpp"
#include "simmpi/trace_validate.hpp"
#include "util/error.hpp"

namespace msp {
namespace {

struct Fixture {
  ProteinDatabase db;
  std::string image;
  std::vector<Spectrum> queries;
  SearchConfig config;
  QueryHits serial;

  Fixture() {
    ProteinGenOptions db_options;
    db_options.sequence_count = 40;
    db_options.mean_length = 120;
    db_options.seed = 1009;
    db = generate_proteins(db_options);
    image = to_fasta_string(db);

    QueryGenOptions q_options;
    q_options.query_count = 12;
    q_options.seed = 1010;
    q_options.digest.min_length = 6;
    q_options.digest.max_length = 25;
    queries = spectra_of(generate_queries(db, q_options));

    config.tolerance_da = 3.0;
    config.tau = 7;
    config.min_candidate_length = 4;
    config.max_candidate_length = 60;
    config.model = ScoreModel::kLikelihood;

    const SearchEngine engine(config);
    serial = engine.search(db, queries);
  }
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

void expect_hits_equal(const QueryHits& got, const QueryHits& want,
                       const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t q = 0; q < want.size(); ++q) {
    ASSERT_EQ(got[q].size(), want[q].size()) << label << " query " << q;
    for (std::size_t h = 0; h < want[q].size(); ++h) {
      EXPECT_EQ(got[q][h].protein_id, want[q][h].protein_id)
          << label << " q" << q << " h" << h;
      EXPECT_EQ(got[q][h].length, want[q][h].length)
          << label << " q" << q << " h" << h;
      EXPECT_EQ(got[q][h].end, want[q][h].end) << label << " q" << q << " h"
                                               << h;
      EXPECT_DOUBLE_EQ(got[q][h].score, want[q][h].score)
          << label << " q" << q << " h" << h;
    }
  }
}

enum class Algo { kA, kMasterWorker };
enum class Schedule { kStraggler, kTransient, kCrash, kCombined };

const char* algo_name(Algo algo) {
  return algo == Algo::kA ? "A" : "master-worker";
}

const char* schedule_name(Schedule kind) {
  switch (kind) {
    case Schedule::kStraggler: return "straggler";
    case Schedule::kTransient: return "transient";
    case Schedule::kCrash: return "crash";
    case Schedule::kCombined: return "combined";
  }
  return "?";
}

/// Crash steps are ring iterations for Algorithm A and received-batch
/// ordinals for master-worker; rank 1 is always the victim.
sim::FaultModel make_schedule(Schedule kind, Algo algo, int p) {
  sim::FaultModel faults;
  const int crash_step = algo == Algo::kA ? p / 2 : 0;
  switch (kind) {
    case Schedule::kStraggler:
      faults.straggle(1, 4.0, 2.0);
      break;
    case Schedule::kTransient:
      faults.fail_transfers(1, {0, 1, 2});
      break;
    case Schedule::kCrash:
      faults.crash(1, crash_step);
      break;
    case Schedule::kCombined:
      faults.straggle(0, 2.0, 1.5)
          .fail_transfers(p - 1, {1, 2})
          .crash(1, crash_step);
      break;
  }
  return faults;
}

// ---------- the main matrix: algorithm × schedule × p ----------

class FaultSchedule
    : public ::testing::TestWithParam<std::tuple<Algo, Schedule, int>> {};

TEST_P(FaultSchedule, ReproducesSerialHitsAndCounters) {
  const auto [algo, kind, p] = GetParam();
  const Fixture& f = fixture();
  const sim::FaultModel faults = make_schedule(kind, algo, p);
  const sim::Runtime runtime(p, {}, {}, faults);
  const std::string label = std::string(algo_name(algo)) + "/" +
                            schedule_name(kind) + " p=" + std::to_string(p);

  // Losing rank 1 at p=2 leaves master-worker with no worker at all —
  // that schedule is rejected deterministically, not half-recovered.
  const bool sole_worker_lost =
      algo == Algo::kMasterWorker && p == 2 &&
      (kind == Schedule::kCrash || kind == Schedule::kCombined);
  if (sole_worker_lost) {
    EXPECT_THROW(run_master_worker(runtime, f.image, f.queries, f.config),
                 FaultUnrecoverable)
        << label;
    return;
  }

  const ParallelRunResult result =
      algo == Algo::kA
          ? run_algorithm_a(runtime, f.image, f.queries, f.config)
          : run_master_worker(runtime, f.image, f.queries, f.config);
  expect_hits_equal(result.hits, f.serial, label);
  const sim::RunReport& report = result.report;

  switch (kind) {
    case Schedule::kStraggler:
      EXPECT_EQ(report.total_transfer_retries(), 0u) << label;
      EXPECT_TRUE(report.crashed_ranks().empty()) << label;
      break;
    case Schedule::kTransient: {
      // Ordinals {0,1,2} are consumed by rank 1's first transfer: exactly
      // three retries, whatever the algorithm's communication pattern.
      EXPECT_EQ(report.total_transfer_retries(), 3u) << label;
      EXPECT_EQ(report.ranks[1].transfer_retries, 3u) << label;
      const double expected_cost = faults.retry_delay(0) +
                                   faults.retry_delay(1) +
                                   faults.retry_delay(2);
      EXPECT_DOUBLE_EQ(report.ranks[1].recovery_seconds, expected_cost)
          << label;
      EXPECT_TRUE(report.crashed_ranks().empty()) << label;
      break;
    }
    case Schedule::kCrash:
      EXPECT_EQ(report.crashed_ranks(), std::vector<int>{1}) << label;
      EXPECT_TRUE(report.ranks[1].crashed) << label;
      if (algo == Algo::kA) {
        EXPECT_GT(report.total_recovery_seconds(), 0.0) << label;
        EXPECT_EQ(report.sum_counter("recovered_queries"),
                  query_block(f.queries.size(), 1, p).count())
            << label;
      }
      break;
    case Schedule::kCombined:
      EXPECT_EQ(report.crashed_ranks(), std::vector<int>{1}) << label;
      if (algo == Algo::kA) {
        EXPECT_EQ(report.total_transfer_retries(), 2u) << label;
        EXPECT_GT(report.total_recovery_seconds(), 0.0) << label;
      }
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmScheduleRanks, FaultSchedule,
    ::testing::Combine(::testing::Values(Algo::kA, Algo::kMasterWorker),
                       ::testing::Values(Schedule::kStraggler,
                                         Schedule::kTransient, Schedule::kCrash,
                                         Schedule::kCombined),
                       ::testing::Values(2, 4, 8)));

// The hybrid shares the ring recovery path: a crash inside one sub-group
// is absorbed by that group's survivors.
TEST(FaultHybrid, GroupLocalCrashRecovers) {
  const Fixture& f = fixture();
  sim::FaultModel faults;
  faults.crash(1, 1);  // rank 1 = member 1 of group 0 when p=4, groups=2
  const sim::Runtime runtime(4, {}, {}, faults);
  HybridOptions options;
  options.groups = 2;
  const HybridResult result =
      run_algorithm_hybrid(runtime, f.image, f.queries, f.config, options);
  expect_hits_equal(result.hits, f.serial, "hybrid crash");
  EXPECT_EQ(result.report.crashed_ranks(), std::vector<int>{1});
}

// ---------- determinism regression ----------
// netmodel.hpp promises that (workload, model, p[, fault schedule]) fully
// determines every virtual-time result; these tests pin it down.
// Master-worker is exempt by design: its batch assignment follows the
// physical arrival order of worker requests (see faults.hpp).

TEST(FaultDeterminism, FailureFreeRunsAreByteIdentical) {
  const Fixture& f = fixture();
  const sim::Runtime runtime(4);
  const ParallelRunResult first =
      run_algorithm_a(runtime, f.image, f.queries, f.config);
  const ParallelRunResult second =
      run_algorithm_a(runtime, f.image, f.queries, f.config);
  EXPECT_EQ(first.report.to_csv(), second.report.to_csv());
  EXPECT_EQ(first.report.to_string(), second.report.to_string());
  EXPECT_EQ(first.report.total_time(), second.report.total_time());
}

TEST(FaultDeterminism, FaultScheduleRunsAreByteIdentical) {
  const Fixture& f = fixture();
  const sim::FaultModel faults = make_schedule(Schedule::kCombined, Algo::kA, 4);
  const sim::Runtime runtime(4, {}, {}, faults);
  const ParallelRunResult first =
      run_algorithm_a(runtime, f.image, f.queries, f.config);
  const ParallelRunResult second =
      run_algorithm_a(runtime, f.image, f.queries, f.config);
  expect_hits_equal(second.hits, first.hits, "fault determinism");
  EXPECT_EQ(first.report.to_csv(), second.report.to_csv());
  EXPECT_EQ(first.report.to_string(), second.report.to_string());
  EXPECT_EQ(first.report.total_time(), second.report.total_time());
  EXPECT_EQ(first.report.total_recovery_seconds(),
            second.report.total_recovery_seconds());
  EXPECT_EQ(first.report.total_transfer_retries(),
            second.report.total_transfer_retries());
}

TEST(FaultDeterminism, TracedFaultRunsAreByteIdentical) {
  // The span timeline (crash, retries, recovery re-search included) must
  // render byte-identically run over run, and pass the schema validator.
  const Fixture& f = fixture();
  const sim::FaultModel faults = make_schedule(Schedule::kCombined, Algo::kA, 4);
  sim::Runtime runtime(4, {}, {}, faults);
  runtime.enable_tracing();
  const ParallelRunResult first =
      run_algorithm_a(runtime, f.image, f.queries, f.config);
  const ParallelRunResult second =
      run_algorithm_a(runtime, f.image, f.queries, f.config);
  const std::string trace = first.report.to_chrome_trace();
  EXPECT_EQ(trace, second.report.to_chrome_trace());
  EXPECT_EQ(first.report.to_iteration_csv(), second.report.to_iteration_csv());
  EXPECT_EQ(sim::validate_chrome_trace(trace), "");
  // Fault activity reached the fault lane.
  EXPECT_NE(trace.find("fault-crash"), std::string::npos);
  EXPECT_NE(trace.find("fault-retry"), std::string::npos);
}

TEST(FaultDeterminism, TracingDoesNotChangeVirtualTimes) {
  const Fixture& f = fixture();
  const sim::FaultModel faults = make_schedule(Schedule::kCombined, Algo::kA, 4);
  sim::Runtime traced(4, {}, {}, faults);
  traced.enable_tracing();
  const sim::Runtime plain(4, {}, {}, faults);
  const ParallelRunResult with_spans =
      run_algorithm_a(traced, f.image, f.queries, f.config);
  const ParallelRunResult without =
      run_algorithm_a(plain, f.image, f.queries, f.config);
  expect_hits_equal(with_spans.hits, without.hits, "tracing transparency");
  EXPECT_EQ(with_spans.report.to_csv(), without.report.to_csv());
  EXPECT_EQ(with_spans.report.to_string(), without.report.to_string());
}

// ---------- zero cost when disabled ----------

TEST(FaultLayer, EmptyScheduleIsByteIdenticalToNoSchedule) {
  const Fixture& f = fixture();
  const sim::Runtime plain(4);
  const sim::Runtime with_empty_schedule(4, {}, {}, sim::FaultModel{});
  const ParallelRunResult base =
      run_algorithm_a(plain, f.image, f.queries, f.config);
  const ParallelRunResult layered =
      run_algorithm_a(with_empty_schedule, f.image, f.queries, f.config);
  expect_hits_equal(layered.hits, base.hits, "zero-cost");
  EXPECT_EQ(base.report.to_csv(), layered.report.to_csv());
  EXPECT_EQ(base.report.to_string(), layered.report.to_string());
  EXPECT_EQ(base.report.total_time(), layered.report.total_time());
  EXPECT_FALSE(layered.report.has_fault_activity());
}

// ---------- runtime-level fault semantics ----------

TEST(FaultLayer, StragglerScalesComputeExactly) {
  sim::FaultModel faults;
  faults.straggle(1, 2.5);
  const sim::Runtime runtime(2, {}, {}, faults);
  const sim::RunReport report =
      runtime.run([](sim::Comm& comm) { comm.clock().charge_compute(1.0); });
  EXPECT_DOUBLE_EQ(report.ranks[0].compute_seconds, 1.0);
  EXPECT_DOUBLE_EQ(report.ranks[1].compute_seconds, 2.5);
}

TEST(FaultLayer, ComputeStragglerScalingIsExactOnAlgorithmA) {
  const Fixture& f = fixture();
  const sim::Runtime plain(4);
  sim::FaultModel faults;
  faults.straggle(1, 4.0);  // power of two: scaling commutes with rounding
  const sim::Runtime slowed(4, {}, {}, faults);
  const ParallelRunResult base =
      run_algorithm_a(plain, f.image, f.queries, f.config);
  const ParallelRunResult straggled =
      run_algorithm_a(slowed, f.image, f.queries, f.config);
  expect_hits_equal(straggled.hits, base.hits, "straggler");
  EXPECT_DOUBLE_EQ(straggled.report.ranks[1].compute_seconds,
                   4.0 * base.report.ranks[1].compute_seconds);
  EXPECT_DOUBLE_EQ(straggled.report.ranks[0].compute_seconds,
                   base.report.ranks[0].compute_seconds);
  EXPECT_GT(straggled.report.total_time(), base.report.total_time());
}

TEST(FaultLayer, NetworkStragglerScalesTransferCost) {
  const auto body = [](sim::Comm& comm) {
    std::vector<char> local(1 << 14, 'x');
    sim::Window window(comm, local);
    std::vector<char> fetched;
    sim::RmaRequest request =
        window.rget((comm.rank() + 1) % 2, fetched, 1);
    window.wait(request);
    window.fence();
  };
  const sim::NetworkModel network;
  const sim::Runtime plain(2, network);
  sim::FaultModel faults;
  faults.straggle(1, 1.0, 3.0);
  const sim::Runtime degraded(2, network, {}, faults);
  const sim::RunReport base = plain.run(body);
  const sim::RunReport slow = degraded.run(body);
  // Rank 1 is an endpoint of both pulls, so both transfers cost 3x; the
  // extra residual wait is exactly two baseline transfer costs. (Total
  // residual also contains the window-setup collective, which the network
  // multiplier does not touch — hence the difference, not a ratio.)
  const double cost = network.transfer_cost(1 << 14, 1, 0, 1);
  EXPECT_NEAR(slow.ranks[1].residual_comm_seconds -
                  base.ranks[1].residual_comm_seconds,
              2.0 * cost, 1e-12);
  EXPECT_NEAR(slow.ranks[0].residual_comm_seconds -
                  base.ranks[0].residual_comm_seconds,
              2.0 * cost, 1e-12);
}

TEST(FaultLayer, TransientRetryCostIsExact) {
  sim::FaultModel faults;
  faults.fail_transfers(1, {0});
  const sim::Runtime runtime(2, {}, {}, faults);
  const sim::RunReport report = runtime.run([](sim::Comm& comm) {
    std::vector<char> local(64, 'x');
    sim::Window window(comm, local);
    std::vector<char> fetched;
    sim::RmaRequest request =
        window.rget((comm.rank() + 1) % 2, fetched, 1);
    window.wait(request);
    window.fence();
  });
  EXPECT_EQ(report.ranks[0].transfer_retries, 0u);
  EXPECT_EQ(report.ranks[1].transfer_retries, 1u);
  EXPECT_DOUBLE_EQ(report.ranks[1].recovery_seconds, faults.retry_delay(0));
  ASSERT_EQ(report.ranks[1].fault_events.size(), 1u);
  EXPECT_EQ(report.ranks[1].fault_events[0].kind, sim::FaultKind::kRetry);
  EXPECT_TRUE(report.has_fault_activity());
}

TEST(FaultLayer, BackoffDoublesUpToCap) {
  sim::FaultModel faults;
  EXPECT_DOUBLE_EQ(faults.retry_delay(0),
                   faults.retry_timeout_s + faults.backoff_base_s);
  EXPECT_DOUBLE_EQ(faults.retry_delay(1),
                   faults.retry_timeout_s + 2.0 * faults.backoff_base_s);
  EXPECT_DOUBLE_EQ(faults.retry_delay(10),
                   faults.retry_timeout_s + faults.backoff_cap_s);
}

TEST(FaultLayer, CrashEventsAppearInTrace) {
  const Fixture& f = fixture();
  sim::FaultModel faults;
  faults.crash(1, 2);
  const sim::Runtime runtime(4, {}, {}, faults);
  const ParallelRunResult result =
      run_algorithm_a(runtime, f.image, f.queries, f.config);
  ASSERT_FALSE(result.report.ranks[1].fault_events.empty());
  EXPECT_EQ(result.report.ranks[1].fault_events[0].kind, sim::FaultKind::kCrash);
  const std::string trace = result.report.to_string();
  EXPECT_NE(trace.find("CRASHED"), std::string::npos);
  EXPECT_NE(trace.find("fault[crash]"), std::string::npos);
  EXPECT_NE(trace.find("fault[recovery]"), std::string::npos);
  // Survivors recorded the detection timeout and the re-search span.
  for (int r : {0, 2, 3})
    EXPECT_GT(result.report.ranks[static_cast<std::size_t>(r)].recovery_seconds,
              0.0)
        << "rank " << r;
}

// ---------- schedule validation and unrecoverable schedules ----------

TEST(FaultLayer, ScheduleValidation) {
  sim::FaultModel out_of_range;
  out_of_range.crash(5, 0);
  EXPECT_THROW(sim::Runtime(2, {}, {}, out_of_range), InvalidArgument);

  sim::FaultModel bad_multiplier;
  bad_multiplier.straggle(0, -1.0);
  EXPECT_THROW(sim::Runtime(2, {}, {}, bad_multiplier), InvalidArgument);

  sim::FaultModel negative_step;
  negative_step.crash(1, -3);
  EXPECT_THROW(sim::Runtime(2, {}, {}, negative_step), InvalidArgument);
}

TEST(FaultLayer, AllRanksDeadIsUnrecoverable) {
  const Fixture& f = fixture();
  sim::FaultModel faults;
  faults.crash(0, 0).crash(1, 1);
  const sim::Runtime runtime(2, {}, {}, faults);
  EXPECT_THROW(run_algorithm_a(runtime, f.image, f.queries, f.config),
               FaultUnrecoverable);
}

TEST(FaultLayer, ShardAndReplicaBothLostIsUnrecoverable) {
  const Fixture& f = fixture();
  sim::FaultModel faults;
  faults.crash(1, 0).crash(2, 1);  // shard 1's owner and its successor
  const sim::Runtime runtime(4, {}, {}, faults);
  EXPECT_THROW(run_algorithm_a(runtime, f.image, f.queries, f.config),
               FaultUnrecoverable);
}

TEST(FaultLayer, MasterCrashIsUnrecoverable) {
  const Fixture& f = fixture();
  sim::FaultModel faults;
  faults.crash(0, 0);
  const sim::Runtime runtime(4, {}, {}, faults);
  EXPECT_THROW(run_master_worker(runtime, f.image, f.queries, f.config),
               FaultUnrecoverable);
}

TEST(FaultLayer, AllWorkersDeadIsUnrecoverable) {
  const Fixture& f = fixture();
  sim::FaultModel faults;
  faults.crash(1, 0).crash(2, 3).crash(3, 1);
  const sim::Runtime runtime(4, {}, {}, faults);
  EXPECT_THROW(run_master_worker(runtime, f.image, f.queries, f.config),
               FaultUnrecoverable);
}

// Drivers without a replica scheme reject a crash schedule up front rather
// than finishing with the crash silently dropped.
TEST(FaultLayer, AlgorithmBRejectsCrashSchedule) {
  const Fixture& f = fixture();
  sim::FaultModel faults;
  faults.crash(1, 2);
  const sim::Runtime runtime(4, {}, {}, faults);
  EXPECT_THROW(run_algorithm_b(runtime, f.image, f.queries, f.config),
               FaultUnrecoverable);
}

TEST(FaultLayer, QueryTransportRejectsCrashSchedule) {
  const Fixture& f = fixture();
  sim::FaultModel faults;
  faults.crash(1, 2);
  const sim::Runtime runtime(4, {}, {}, faults);
  EXPECT_THROW(run_query_transport(runtime, f.image, f.queries, f.config),
               FaultUnrecoverable);
}

TEST(FaultLayer, CandidateStoreRejectsCrashSchedule) {
  const Fixture& f = fixture();
  sim::FaultModel faults;
  faults.crash(1, 2);
  const sim::Runtime runtime(4, {}, {}, faults);
  EXPECT_THROW(run_candidate_store(runtime, f.image, f.queries, f.config),
               FaultUnrecoverable);
}

}  // namespace
}  // namespace msp
