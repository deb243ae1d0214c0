// Rotation transport accounting: the rotating drivers fetch every remote
// shard they visit exactly once — the masked prefetch and the blocking
// fetch never both move the same shard, a routed-away shard is never
// fetched, and the rank's own shard is never fetched at all. Counted from
// the traced transfer lane (one kRgetIssue span per issued get).
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "core/algorithm_a.hpp"
#include "core/algorithm_b.hpp"
#include "core/algorithm_hybrid.hpp"
#include "dbgen/protein_gen.hpp"
#include "dbgen/query_gen.hpp"
#include "io/fasta.hpp"
#include "serve/service.hpp"
#include "simmpi/runtime.hpp"

namespace msp {
namespace {

struct Fixture {
  std::string image;
  std::vector<Spectrum> queries;
  SearchConfig config;

  Fixture() {
    ProteinGenOptions db_options;
    db_options.sequence_count = 40;
    db_options.mean_length = 120;
    db_options.seed = 1009;
    const ProteinDatabase db = generate_proteins(db_options);
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
  }
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

sim::Runtime traced(int p) {
  sim::Runtime runtime(p);
  runtime.enable_tracing();
  return runtime;
}

std::size_t rget_issues(const sim::RankStats& rank) {
  std::size_t issues = 0;
  for (const sim::Span& span : rank.spans)
    if (span.kind == sim::SpanKind::kRgetIssue) ++issues;
  return issues;
}

/// Ring steps past step 0 (whose shard is the rank's own) that the router
/// skipped, from the "A2 ring step <s> routed skip" markers.
std::size_t remote_routed_skips(const sim::RankStats& rank) {
  const std::string prefix = "A2 ring step ";
  const std::string suffix = " routed skip";
  std::size_t skips = 0;
  for (const sim::Span& span : rank.spans) {
    const std::string& name = span.name;
    if (span.kind != sim::SpanKind::kMarker ||
        name.size() <= prefix.size() + suffix.size() ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
      continue;
    const int step = std::stoi(name.substr(prefix.size()));
    if (step != 0) ++skips;
  }
  return skips;
}

TEST(Rotation, OneFetchPerVisitedRemoteShard) {
  const Fixture& f = fixture();
  SearchConfig narrow = f.config;
  narrow.tolerance_da = 0.05;

  std::size_t skipped_total = 0;
  for (const int p : {3, 4}) {
    for (const bool mask : {true, false}) {
      const std::string label =
          "p=" + std::to_string(p) + " mask=" + (mask ? "on" : "off");
      AlgorithmAOptions unrouted;
      unrouted.mask = mask;
      unrouted.mass_routing = false;
      const ParallelRunResult a =
          run_algorithm_a(traced(p), f.image, f.queries, f.config, unrouted);
      for (int r = 0; r < p; ++r)
        EXPECT_EQ(rget_issues(a.report.ranks[static_cast<std::size_t>(r)]),
                  static_cast<std::size_t>(p - 1))
            << "A unrouted " << label << " rank " << r;

      AlgorithmAOptions routed;
      routed.mask = mask;
      const ParallelRunResult narrow_a =
          run_algorithm_a(traced(p), f.image, f.queries, narrow, routed);
      for (int r = 0; r < p; ++r) {
        const sim::RankStats& rank =
            narrow_a.report.ranks[static_cast<std::size_t>(r)];
        const std::size_t skipped = remote_routed_skips(rank);
        skipped_total += skipped;
        EXPECT_EQ(rget_issues(rank), static_cast<std::size_t>(p - 1) - skipped)
            << "A routed " << label << " rank " << r;
      }
    }
  }
  // The routed expectation must not hold vacuously: the narrow window
  // proves some remote shard empty for some rank.
  EXPECT_GT(skipped_total, 0u);

  // The hybrid's sub-rings always route; each visits its group's shards.
  HybridOptions hybrid;
  hybrid.groups = 2;
  const HybridResult h =
      run_algorithm_hybrid(traced(4), f.image, f.queries, narrow, hybrid);
  for (int r = 0; r < 4; ++r) {
    const sim::RankStats& rank = h.report.ranks[static_cast<std::size_t>(r)];
    EXPECT_EQ(rget_issues(rank), 1u - remote_routed_skips(rank))
        << "hybrid rank " << r;
  }

  // Algorithm B visits its sender group {p − visited, ..., p − 1}; its own
  // shard, when in the group, is searched in place.
  const AlgorithmBResult b =
      run_algorithm_b(traced(4), f.image, f.queries, f.config);
  for (int r = 0; r < 4; ++r) {
    const sim::RankStats& rank = b.report.ranks[static_cast<std::size_t>(r)];
    const auto counter = rank.counters.find("shards_visited");
    ASSERT_NE(counter, rank.counters.end()) << "B rank " << r;
    const auto visited = static_cast<std::size_t>(counter->second);
    const bool own_in_group =
        visited > 0 && static_cast<std::size_t>(r) >= 4 - visited;
    EXPECT_EQ(rget_issues(rank), visited - (own_in_group ? 1 : 0))
        << "B rank " << r;
  }

  // The serving ring, unrouted, one batch: one rotation, one fetch per
  // remote band.
  serve::ServiceOptions service;
  service.arrivals.kind = serve::ArrivalKind::kBurst;
  service.arrivals.burst_size = f.queries.size();
  service.batch.max_batch = f.queries.size();
  service.admission.max_outstanding = f.queries.size();
  service.mass_routing = false;
  const serve::ServiceResult served =
      serve::run_service(traced(4), f.image, f.queries, f.config, service);
  ASSERT_EQ(served.batches, 1u);
  for (int r = 0; r < 4; ++r)
    EXPECT_EQ(rget_issues(served.report.ranks[static_cast<std::size_t>(r)]),
              3u)
        << "serve rank " << r;
}

}  // namespace
}  // namespace msp
