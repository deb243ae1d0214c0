// Mass-aware shard routing validation: the oracle matrix (routed and
// unrouted service hits must be bit-identical to the reference kernel
// across precursor-window widths, query-mass distributions, and fault
// schedules), the exhaustive skip proof (a routed-away band truly holds no
// candidate for any skipped query), byte-level determinism of routed runs
// (hits, report JSON, trace) across reruns, kernel thread counts, and crash
// re-admission, the histogram wire record's round-trip/corruption
// properties, the one-image/one-exchange contract (each pack decoder rejects
// the other format, A's shard image does not depend on routing, the
// exchange covers every shard), and the router's audit counters in the
// report schema.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/algorithm_a.hpp"
#include "core/candidate_record.hpp"
#include "core/packdb.hpp"
#include "core/partition.hpp"
#include "core/ring_service.hpp"
#include "core/search_engine.hpp"
#include "core/shard_map.hpp"
#include "dbgen/protein_gen.hpp"
#include "dbgen/query_gen.hpp"
#include "io/fasta.hpp"
#include "io/wire_record.hpp"
#include "serve/service.hpp"
#include "simmpi/runtime.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace msp {
namespace {

// ---------------------------------------------------------------------------
// Workloads: a uniform query-mass spread and a skewed one (all targets
// excised from a narrow digest-length slice, so the masses pile into a thin
// band and most of the ring's mass bands are provably irrelevant).

struct Workload {
  std::string name;
  ProteinDatabase db;
  std::string image;
  std::vector<Spectrum> queries;
};

Workload make_workload(bool skewed) {
  Workload w;
  w.name = skewed ? "skewed" : "uniform";

  ProteinGenOptions db_options;
  db_options.sequence_count = 30;
  db_options.mean_length = 100;
  db_options.seed = skewed ? 7101 : 7001;
  w.db = generate_proteins(db_options);
  w.image = to_fasta_string(w.db);

  QueryGenOptions q_options;
  q_options.query_count = 18;
  q_options.seed = skewed ? 7102 : 7002;
  q_options.digest.min_length = 6;
  q_options.digest.max_length = skewed ? 9 : 25;
  w.queries = spectra_of(generate_queries(w.db, q_options));
  return w;
}

const Workload& workload(bool skewed) {
  static const Workload uniform = make_workload(false);
  static const Workload skew = make_workload(true);
  return skewed ? skew : uniform;
}

SearchConfig make_config(double tolerance_da) {
  SearchConfig config;
  config.tolerance_da = tolerance_da;
  config.tau = 6;
  config.min_candidate_length = 4;
  config.max_candidate_length = 60;
  config.model = ScoreModel::kLikelihood;
  return config;
}

/// The routing oracle: the original database-walking kernel over the whole
/// (unsharded) database — no banding, no histograms, no ring.
QueryHits reference_hits(const Workload& w, const SearchConfig& config) {
  const SearchEngine engine(config);
  const PreparedQueries prepared = engine.prepare(
      std::span<const Spectrum>(w.queries.data(), w.queries.size()));
  std::vector<TopK<Hit>> tops = engine.make_tops(w.queries.size());
  engine.search_shard_reference(w.db, prepared, tops, nullptr);
  return engine.finalize(tops);
}

/// Bit-identity, not tolerance: every field of every hit, scores compared
/// with operator== on the doubles.
void expect_hits_identical(const QueryHits& got, const QueryHits& want,
                           const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t q = 0; q < want.size(); ++q) {
    ASSERT_EQ(got[q].size(), want[q].size()) << label << " query " << q;
    for (std::size_t h = 0; h < want[q].size(); ++h) {
      EXPECT_EQ(got[q][h].protein_id, want[q][h].protein_id)
          << label << " q" << q << " h" << h;
      EXPECT_EQ(got[q][h].offset, want[q][h].offset)
          << label << " q" << q << " h" << h;
      EXPECT_EQ(got[q][h].length, want[q][h].length)
          << label << " q" << q << " h" << h;
      EXPECT_EQ(got[q][h].end, want[q][h].end)
          << label << " q" << q << " h" << h;
      EXPECT_EQ(got[q][h].peptide, want[q][h].peptide)
          << label << " q" << q << " h" << h;
      EXPECT_EQ(got[q][h].score, want[q][h].score)
          << label << " q" << q << " h" << h;
    }
  }
}

serve::ServiceOptions service_options(bool routed) {
  serve::ServiceOptions options;
  options.arrivals.kind = serve::ArrivalKind::kPoisson;
  options.arrivals.rate_qps = 400.0;
  options.arrivals.seed = 77;
  options.batch.max_batch = 6;
  options.batch.max_wait_s = 0.02;
  options.admission.max_outstanding = 256;
  options.mass_routing = routed;
  return options;
}

// ---------------------------------------------------------------------------
// The oracle matrix: {narrow, wide, open-ish} windows × {uniform, skewed}
// mass distributions × {clean, crash} schedules. In every cell the routed
// and unrouted service must reproduce the reference kernel's hit lists
// bit-for-bit; in narrow cells the router must actually skip.

TEST(Routing, OracleMatrixRoutedEqualsUnroutedEqualsReference) {
  const int p = 5;
  for (const bool skewed : {false, true}) {
    const Workload& w = workload(skewed);
    for (const double tolerance : {0.05, 3.0, 25.0}) {
      const SearchConfig config = make_config(tolerance);
      const QueryHits reference = reference_hits(w, config);
      for (const bool crash : {false, true}) {
        const std::string cell = w.name + " tol=" + std::to_string(tolerance) +
                                 (crash ? " crash" : " clean");
        sim::FaultModel faults;
        if (crash) faults.crash(2, 3);  // rank 2 dies at ring step 3
        const sim::Runtime runtime(p, {}, {}, faults);

        const serve::ServiceResult routed = serve::run_service(
            runtime, w.image, w.queries, config, service_options(true));
        const serve::ServiceResult unrouted = serve::run_service(
            runtime, w.image, w.queries, config, service_options(false));

        EXPECT_EQ(routed.completed, w.queries.size()) << cell;
        EXPECT_EQ(unrouted.completed, w.queries.size()) << cell;
        expect_hits_identical(routed.hits, reference, cell + " routed");
        expect_hits_identical(unrouted.hits, reference, cell + " unrouted");

        // Audit sanity: routing off never reports a skip; ratios in range.
        EXPECT_EQ(unrouted.steps_skipped, 0u) << cell;
        EXPECT_EQ(unrouted.skip_ratio, 0.0) << cell;
        EXPECT_GE(routed.skip_ratio, 0.0) << cell;
        EXPECT_LE(routed.skip_ratio, 1.0) << cell;
        // Narrow windows over banded shards must skip most of the ring —
        // otherwise the router is vacuous and this suite proves nothing.
        if (tolerance <= 0.05) {
          EXPECT_GT(routed.steps_skipped, 0u) << cell;
          EXPECT_GT(routed.skip_ratio, 0.5) << cell;
          EXPECT_LE(routed.makespan_s, unrouted.makespan_s) << cell;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The skip proof, checked against ground truth: rebuild the service's band
// layout collectively, then for every (query, band) the map routes away,
// exhaustively scan the band and require zero candidates inside any of the
// query's hypothesis windows. Also checks record_range's superset contract
// on the visited side — every in-window record index lies in the range.

TEST(Routing, SkippedShardsContainNoCandidatesExhaustive) {
  const Workload& w = workload(false);
  const SearchConfig config = make_config(0.05);
  const SearchEngine engine(config);
  const int p = 6;
  const sim::Runtime runtime(p);

  std::vector<std::uint64_t> skipped(static_cast<std::size_t>(p), 0);
  std::vector<std::uint64_t> skip_violations(static_cast<std::size_t>(p), 0);
  std::vector<std::uint64_t> range_violations(static_cast<std::size_t>(p), 0);

  runtime.run([&](sim::Comm& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    ProteinDatabase local_db =
        load_database_shard(w.image, comm.rank(), p);

    // The stream envelope the service enumerates under.
    double stream_lo = 1e30;
    double stream_hi = -1e30;
    for (const Spectrum& query : w.queries)
      for (const double mass : engine.hypothesis_masses(query)) {
        stream_lo = std::min(stream_lo, mass);
        stream_hi = std::max(stream_hi, mass);
      }
    std::vector<CandidateRecord> records = enumerate_candidate_records(
        local_db, config, stream_lo - config.tolerance_da,
        stream_hi + config.tolerance_da);
    const std::vector<CandidateRecord> band =
        sort_candidate_records_by_mass(comm, std::move(records));

    std::vector<double> masses;
    masses.reserve(band.size());
    for (const CandidateRecord& record : band) masses.push_back(record.mass);
    const MassHistogram histogram =
        MassHistogram::build(masses, kServeRouteBucketDa);
    const ShardMassMap map = ShardMassMap::exchange(comm, histogram);

    for (const Spectrum& query : w.queries) {
      const std::vector<double> hyp = engine.hypothesis_masses(query);
      const auto in_window = [&](double mass) {
        for (const double m : hyp)
          if (mass >= m - config.tolerance_da &&
              mass <= m + config.tolerance_da)
            return true;
        return false;
      };
      if (!map.needed(comm.rank(), hyp, config.tolerance_da,
                      config.tolerance_da)) {
        ++skipped[rank];
        for (const CandidateRecord& record : band)
          if (in_window(record.mass)) ++skip_violations[rank];
      } else if (!hyp.empty()) {
        double lo = hyp.front();
        double hi = hyp.front();
        for (const double m : hyp) {
          lo = std::min(lo, m);
          hi = std::max(hi, m);
        }
        const auto [first, last] = map.histogram(comm.rank()).record_range(
            lo - config.tolerance_da, hi + config.tolerance_da);
        for (std::size_t i = 0; i < band.size(); ++i)
          if (in_window(band[i].mass) && (i < first || i >= last))
            ++range_violations[rank];
      }
    }
  });

  std::uint64_t total_skipped = 0;
  for (int r = 0; r < p; ++r) {
    const auto rank = static_cast<std::size_t>(r);
    total_skipped += skipped[rank];
    EXPECT_EQ(skip_violations[rank], 0u)
        << "rank " << r << " skipped a band holding in-window candidates";
    EXPECT_EQ(range_violations[rank], 0u)
        << "rank " << r << " record_range dropped an in-window record";
  }
  // The proof is vacuous unless the narrow window actually skips.
  EXPECT_GT(total_skipped, 0u);
}

// ---------------------------------------------------------------------------
// Byte-level determinism with routing on: reruns, kernel thread counts, and
// a crash schedule whose orphans re-enter admission through the router all
// produce identical hits, report JSON, CSV, and trace bytes.

TEST(Routing, ByteIdenticalAcrossRerunsThreadsAndCrashes) {
  const Workload& w = workload(false);
  sim::FaultModel faults;
  faults.crash(2, 3);
  sim::Runtime runtime(5, {}, {}, faults);
  runtime.enable_tracing();

  auto run_with_threads = [&](std::size_t threads) {
    SearchConfig config = make_config(0.05);
    config.kernel_threads = threads;
    return serve::run_service(runtime, w.image, w.queries, config,
                              service_options(true));
  };

  const serve::ServiceResult a = run_with_threads(1);
  const serve::ServiceResult b = run_with_threads(1);
  const serve::ServiceResult c = run_with_threads(3);

  // The crash exercised the router's re-admission path.
  std::uint32_t redispatches = 0;
  for (const serve::QueryOutcome& q : a.outcomes)
    redispatches += q.redispatches;
  EXPECT_GT(redispatches, 0u);
  EXPECT_GT(a.steps_skipped, 0u);

  for (const serve::ServiceResult* other : {&b, &c}) {
    expect_hits_identical(other->hits, a.hits, "routed rerun");
    EXPECT_EQ(other->report.to_json(), a.report.to_json());
    EXPECT_EQ(other->report.to_csv(), a.report.to_csv());
    EXPECT_EQ(other->report.to_chrome_trace(), a.report.to_chrome_trace());
    EXPECT_EQ(other->steps_visited, a.steps_visited);
    EXPECT_EQ(other->steps_skipped, a.steps_skipped);
    EXPECT_EQ(other->makespan_s, a.makespan_s);
  }
}

// ---------------------------------------------------------------------------
// Batch mode: Algorithm A's router shares the invariant — bit-identical
// hits with routing on or off, same candidate totals, skips only when on.

TEST(Routing, AlgorithmARoutedMatchesUnroutedAndSerial) {
  const Workload& w = workload(false);
  const SearchConfig config = make_config(0.05);
  const SearchEngine engine(config);
  const QueryHits serial = engine.search(w.db, w.queries);
  const sim::Runtime runtime(6);

  AlgorithmAOptions options;
  options.mass_routing = true;
  const ParallelRunResult routed =
      run_algorithm_a(runtime, w.image, w.queries, config, options);
  options.mass_routing = false;
  const ParallelRunResult unrouted =
      run_algorithm_a(runtime, w.image, w.queries, config, options);

  expect_hits_identical(routed.hits, serial, "algorithm A routed");
  expect_hits_identical(unrouted.hits, serial, "algorithm A unrouted");
  EXPECT_EQ(routed.candidates, unrouted.candidates);
  EXPECT_GT(routed.report.sum_counter("route_steps_skipped"), 0u);
  EXPECT_EQ(unrouted.report.sum_counter("route_steps_skipped"), 0u);
}

// ---------------------------------------------------------------------------
// Report schema: the router's audit counters ride the standard counter
// columns (CSV) and counter sums (JSON), and vanish when routing is off —
// the zero-cost-when-disabled contract the fault columns already honor.

TEST(Routing, AuditCountersAppearInReportSchema) {
  const Workload& w = workload(false);
  const SearchConfig config = make_config(0.05);
  const sim::Runtime runtime(5);

  const serve::ServiceResult routed = serve::run_service(
      runtime, w.image, w.queries, config, service_options(true));
  const std::string csv = routed.report.to_csv();
  const std::string json = routed.report.to_json();
  EXPECT_NE(csv.find("route_steps_visited"), std::string::npos);
  EXPECT_NE(csv.find("route_steps_skipped"), std::string::npos);
  EXPECT_NE(json.find("route_steps_visited"), std::string::npos);
  EXPECT_NE(json.find("route_steps_skipped"), std::string::npos);
  EXPECT_GT(routed.report.sum_counter("route_steps_skipped"), 0u);

  // The per-batch audit aggregates to the result's totals.
  std::uint64_t visited = 0;
  std::uint64_t skipped = 0;
  for (const serve::BatchRouteStats& batch : routed.batch_routes) {
    visited += batch.steps_visited;
    skipped += batch.steps_skipped;
  }
  EXPECT_EQ(visited, routed.steps_visited);
  EXPECT_EQ(skipped, routed.steps_skipped);

  const serve::ServiceResult unrouted = serve::run_service(
      runtime, w.image, w.queries, config, service_options(false));
  EXPECT_EQ(unrouted.report.sum_counter("route_steps_skipped"), 0u);
  EXPECT_EQ(unrouted.report.to_csv().find("route_steps_skipped"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Wire format: the histogram record round-trips losslessly under fuzzed
// mass sets, widths, and sizes (empty and singleton included).

TEST(RoutingWire, HistogramRecordRoundTripFuzz) {
  Xoshiro256 rng(424242);
  const double widths[] = {0.01, 0.25, 1.0, 17.3};
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t count =
        trial == 0 ? 0 : (trial == 1 ? 1 : rng() % 300);
    std::vector<double> masses(count);
    for (double& mass : masses)
      mass = 300.0 + static_cast<double>(rng() % 3700000) * 1e-3;
    std::sort(masses.begin(), masses.end());
    const double width = widths[rng() % 4];
    const MassHistogram histogram = MassHistogram::build(masses, width);
    EXPECT_EQ(histogram.total(), masses.size());

    wire::Writer writer;
    put_histogram(writer, histogram);
    const std::vector<char> bytes = writer.take();
    wire::Reader reader(bytes);
    const MassHistogram parsed = get_histogram(reader);
    EXPECT_TRUE(reader.exhausted()) << "trial " << trial;

    EXPECT_EQ(parsed.bucket_width, histogram.bucket_width);
    EXPECT_EQ(parsed.min_mass, histogram.min_mass);
    EXPECT_EQ(parsed.bucket_count, histogram.bucket_count);
    ASSERT_EQ(parsed.buckets.size(), histogram.buckets.size());
    for (std::size_t i = 0; i < histogram.buckets.size(); ++i) {
      EXPECT_EQ(parsed.buckets[i].index, histogram.buckets[i].index);
      EXPECT_EQ(parsed.buckets[i].count, histogram.buckets[i].count);
    }

    // Semantic equivalence on random windows, not just field equality.
    for (int probe = 0; probe < 8; ++probe) {
      const double lo = 250.0 + static_cast<double>(rng() % 3900000) * 1e-3;
      const double hi = lo + static_cast<double>(rng() % 5000) * 1e-3;
      EXPECT_EQ(parsed.occupied(lo, hi), histogram.occupied(lo, hi));
      EXPECT_EQ(parsed.record_range(lo, hi), histogram.record_range(lo, hi));
    }
  }
}

// ---------------------------------------------------------------------------
// Bucket-math boundaries: occupied()/record_range() are integer math over
// clamped bucket ordinals (no float compare against the grid), so masses
// exactly on bucket edges, windows far outside the grid, infinities and
// NaN all take defined paths — edges err occupied (the ±1-bucket widening),
// out-of-grid windows are provably empty, NaN never routes a visit.

TEST(RoutingBucketMath, ExactBucketEdgesAreOccupied) {
  const double width = 0.25;
  std::vector<double> masses = {500.0, 500.5, 501.0};
  const MassHistogram histogram = MassHistogram::build(masses, width);
  for (const double mass : masses) {
    // A zero-width window exactly on a stored mass (a bucket's floor edge,
    // since these masses are multiples of the width).
    EXPECT_TRUE(histogram.occupied(mass, mass)) << mass;
    const auto [first, last] = histogram.record_range(mass, mass);
    EXPECT_LT(first, last) << mass;
  }
  // The grid edges themselves: one bucket-width below the first mass and
  // at/above the last stored bucket are inside the ±1 widening → occupied;
  // two widths out is provably empty.
  EXPECT_TRUE(histogram.occupied(500.0 - width, 500.0 - width));
  EXPECT_FALSE(histogram.occupied(500.0 - 2 * width, 500.0 - 2 * width));
  EXPECT_TRUE(histogram.occupied(501.0 + width, 501.0 + width));
  EXPECT_FALSE(histogram.occupied(501.25 + width, 501.25 + width));
}

TEST(RoutingBucketMath, WindowsOutsideTheGridAreEmpty) {
  std::vector<double> masses = {800.0, 900.0, 1000.0};
  const MassHistogram histogram = MassHistogram::build(masses, 0.01);
  // Far below, far above, and astronomically outside — including values
  // whose float bucket ordinal overflows int32/uint32 if computed naively.
  EXPECT_FALSE(histogram.occupied(1.0, 2.0));
  EXPECT_FALSE(histogram.occupied(5000.0, 6000.0));
  EXPECT_FALSE(histogram.occupied(1e30, 1e30));
  EXPECT_FALSE(histogram.occupied(-1e30, -1e30));
  EXPECT_EQ(histogram.record_range(1.0, 2.0), (std::pair<std::uint64_t,
                                               std::uint64_t>{0, 0}));
  EXPECT_EQ(histogram.record_range(1e30, 1e30).first,
            histogram.record_range(1e30, 1e30).second);
  // An envelope that swallows the whole grid (±inf) routes a visit and
  // covers every record.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(histogram.occupied(-kInf, kInf));
  EXPECT_EQ(histogram.record_range(-kInf, kInf),
            (std::pair<std::uint64_t, std::uint64_t>{0, masses.size()}));
  // Inverted and empty-intersection windows are empty, not UB.
  EXPECT_FALSE(histogram.occupied(900.0, 800.0));
}

TEST(RoutingBucketMath, NanWindowsNeverRoute) {
  std::vector<double> masses = {700.0, 701.0};
  const MassHistogram histogram = MassHistogram::build(masses, 0.01);
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  // Every NaN comparison is false, so a NaN bound lands on the below-grid
  // sentinel and the window is treated as empty — deterministically, on
  // every rank (a NaN that routed "visit" on some ranks and "skip" on
  // others would desynchronize the replicated controllers).
  EXPECT_FALSE(histogram.occupied(kNan, kNan));
  // A NaN lower bound alone degrades to "from below the grid": with a real
  // upper bound the window still conservatively routes a visit.
  EXPECT_TRUE(histogram.occupied(kNan, 701.0));
  EXPECT_EQ(histogram.record_range(kNan, kNan),
            (std::pair<std::uint64_t, std::uint64_t>{0, 0}));
}

// Bucket indices are u32: a grid finer than 2^32 buckets over the mass
// range would wrap the heavy masses onto low buckets, and record_range
// would then return a range that misses them.
TEST(MassHistogram, RejectsGridBeyondUint32Indices) {
  for (const std::vector<double>& masses :
       {std::vector<double>{500.0, 5000.0},
        std::vector<double>{500.0, 2500.0, 5000.0}}) {
    try {
      (void)MassHistogram::build(std::span<const double>(masses), 1e-6);
      ADD_FAILURE() << masses.size() << " masses: a 4.5e9-bucket grid built";
    } catch (const InvalidArgument& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("width 1e-06"), std::string::npos) << message;
    }
  }
  // The widest grid that still fits builds and covers its heaviest mass.
  const std::vector<double> fits{0.0, 4294967295.0};
  const MassHistogram edge =
      MassHistogram::build(std::span<const double>(fits), 1.0);
  EXPECT_EQ(edge.bucket_count, std::uint64_t{UINT32_MAX} + 1);
  EXPECT_EQ(edge.record_range(fits.back() - 0.1, fits.back() + 0.1).second,
            2u);

  // The decoder rejects such a grid too: one bucket past 2^32.
  wire::Writer writer;
  put_histogram(writer, edge);
  std::vector<char> bytes = writer.take();
  const std::uint64_t too_many = std::uint64_t{UINT32_MAX} + 2;
  // After the 12-byte header, the width and min-mass doubles.
  std::memcpy(bytes.data() + 12 + 16, &too_many, sizeof(too_many));
  wire::Reader reader(bytes);
  EXPECT_THROW(get_histogram(reader), IoError);
}

// Corrupt records must be rejected loudly, each with a specific IoError —
// never parsed into a histogram that silently misroutes.

TEST(RoutingWire, CorruptedHistogramRecordsAreRejected) {
  std::vector<double> masses;
  for (int i = 0; i < 50; ++i) masses.push_back(500.0 + 3.1 * i);
  const MassHistogram histogram = MassHistogram::build(masses, 0.25);
  wire::Writer writer;
  put_histogram(writer, histogram);
  const std::vector<char> valid = writer.take();

  const auto expect_rejected = [](std::vector<char> bytes,
                                  const std::string& label) {
    wire::Reader reader(bytes);
    EXPECT_THROW(get_histogram(reader), IoError) << label;
  };

  {  // Bad magic.
    std::vector<char> bytes = valid;
    bytes[0] ^= 0x5A;
    expect_rejected(bytes, "bad magic");
  }
  {  // Truncation anywhere in the record.
    for (const std::size_t keep :
         {std::size_t{4}, std::size_t{12}, valid.size() - 3}) {
      std::vector<char> bytes(valid.begin(),
                              valid.begin() + static_cast<long>(keep));
      expect_rejected(std::move(bytes),
                      "truncated to " + std::to_string(keep));
    }
  }

  // Structurally valid framing with hostile field values, crafted off the
  // real magic (read from the valid image so the constant stays private).
  wire::Reader magic_reader(valid);
  const std::uint64_t magic = magic_reader.peek_u64();
  const auto craft = [&](std::uint32_t version, double width, double min_mass,
                         std::uint64_t grid, auto&&... bucket_fields) {
    wire::Writer bad;
    bad.put_u64(magic);
    bad.put_u32(version);
    bad.put_double(width);
    bad.put_double(min_mass);
    bad.put_u64(grid);
    const std::vector<std::uint32_t> fields{
        static_cast<std::uint32_t>(bucket_fields)...};
    bad.put_u64(fields.size() / 2);
    for (const std::uint32_t field : fields) bad.put_u32(field);
    return bad.take();
  };

  expect_rejected(craft(99, 0.25, 100.0, 10), "unsupported version");
  expect_rejected(craft(1, 0.0, 100.0, 10), "zero width");
  expect_rejected(craft(1, -0.25, 100.0, 10), "negative width");
  expect_rejected(craft(1, std::nan(""), 100.0, 10), "NaN width");
  expect_rejected(craft(1, 0.25, std::nan(""), 10), "NaN min mass");
  expect_rejected(craft(1, 0.25, 100.0, 10, 0u, 0u), "zero-count bucket");
  expect_rejected(craft(1, 0.25, 100.0, 10, 12u, 3u), "bucket outside grid");
  expect_rejected(craft(1, 0.25, 100.0, 10, 5u, 1u, 5u, 2u),
                  "non-ascending buckets");
  expect_rejected(craft(1, 0.25, 100.0, 1, 0u, 1u, 0u, 1u, 0u, 1u),
                  "more nonzero buckets than the grid");
}

// Candidate-record bands: every band the ring, the candidate store and the
// record exchange receive goes through decode_candidate_records, which must
// pass a valid band through unchanged and reject each malformed field before
// the kernel can read past a record.

std::vector<CandidateRecord> sorted_band(const Workload& w) {
  std::vector<CandidateRecord> band = enumerate_candidate_records(
      w.db, make_config(0.5), 0.0, std::numeric_limits<double>::infinity());
  std::sort(band.begin(), band.end(), candidate_record_less);
  return band;
}

std::vector<char> band_bytes(const std::vector<CandidateRecord>& band) {
  const char* begin = reinterpret_cast<const char*>(band.data());
  return {begin, begin + band.size() * sizeof(CandidateRecord)};
}

/// The two tests below were written against a decoder that copied into a
/// caller-owned vector; the decoder now returns a view over `bytes`. This
/// overload keeps their bodies as they were: it leaves `out` untouched and
/// returns the decoder's view, so every assertion reads the view.
std::span<const CandidateRecord> decode_candidate_records(
    std::span<const char> bytes, std::vector<CandidateRecord>& /*out*/,
    const char* what) {
  return msp::decode_candidate_records(bytes, what);
}

TEST(RoutingWire, CandidateRecordBandRoundTrips) {
  const std::vector<CandidateRecord> band = sorted_band(workload(false));
  ASSERT_GT(band.size(), 100u);
  const std::vector<char> bytes = band_bytes(band);
  std::vector<CandidateRecord> out;
  const std::span<const CandidateRecord> decoded =
      decode_candidate_records(bytes, out, "test band");
  ASSERT_EQ(decoded.size(), band.size());
  EXPECT_EQ(std::memcmp(decoded.data(), band.data(), bytes.size()), 0);

  // The decoded band is a working kernel span: it scores exactly like the
  // band it was encoded from.
  const SearchEngine engine(make_config(0.5));
  const PreparedQueries prepared = engine.prepare(workload(false).queries);
  std::vector<TopK<Hit>> from_band = engine.make_tops(prepared.size());
  std::vector<TopK<Hit>> from_bytes = engine.make_tops(prepared.size());
  engine.search_records(band, prepared, from_band);
  engine.search_records(decoded, prepared, from_bytes);
  expect_hits_identical(engine.finalize(from_bytes),
                        engine.finalize(from_band), "decoded band");

  std::vector<CandidateRecord> empty;
  EXPECT_TRUE(decode_candidate_records({}, empty, "empty band").empty());
}

TEST(RoutingWire, CorruptedCandidateRecordsAreRejected) {
  std::vector<CandidateRecord> band = sorted_band(workload(false));
  band.resize(4);
  const auto expect_rejected = [&](const std::string& field,
                                   const auto& corrupt) {
    std::vector<CandidateRecord> bad = band;
    corrupt(bad[2]);
    std::vector<CandidateRecord> out;
    try {
      decode_candidate_records(band_bytes(bad), out, "test band");
      ADD_FAILURE() << field << ": corrupted record was accepted";
    } catch (const IoError& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("test band"), std::string::npos) << message;
      EXPECT_NE(message.find("record 2"), std::string::npos) << message;
      EXPECT_NE(message.find(field), std::string::npos) << message;
    }
  };

  expect_rejected("mass", [](CandidateRecord& r) { r.mass = std::nan(""); });
  expect_rejected("mass", [](CandidateRecord& r) {
    r.mass = std::numeric_limits<double>::infinity();
  });
  expect_rejected("length", [](CandidateRecord& r) { r.length = 0; });
  expect_rejected("length", [](CandidateRecord& r) { r.length = 1; });
  expect_rejected("length", [](CandidateRecord& r) {
    r.length = sizeof(r.peptide);
  });
  expect_rejected("length", [](CandidateRecord& r) { r.length = 0xFFFF; });
  expect_rejected("protein_id", [](CandidateRecord& r) {
    std::memset(r.protein_id, 'P', sizeof(r.protein_id));
  });
  expect_rejected("end", [](CandidateRecord& r) {
    r.end = static_cast<std::uint8_t>(FragmentEnd::kInternal) + 1;
  });
  expect_rejected("end", [](CandidateRecord& r) { r.end = 0xFF; });

  // The boundary values themselves are legal.
  std::vector<CandidateRecord> edge = band;
  edge[0].length = sizeof(edge[0].peptide) - 1;
  edge[1].end = static_cast<std::uint8_t>(FragmentEnd::kInternal);
  std::memset(edge[2].protein_id, 'P', sizeof(edge[2].protein_id) - 1);
  edge[2].protein_id[sizeof(edge[2].protein_id) - 1] = '\0';
  std::vector<CandidateRecord> out;
  EXPECT_EQ(decode_candidate_records(band_bytes(edge), out, "edge").size(),
            edge.size());

  // A torn payload (not a whole number of records) is rejected too.
  std::vector<char> torn = band_bytes(band);
  torn.pop_back();
  EXPECT_THROW(decode_candidate_records(torn, out, "torn band"), IoError);
}

// The decoder returns a view over the received bytes, so it also needs them
// aligned for CandidateRecord, and it must reject the same records wherever
// the bytes arrive from.

TEST(RoutingWire, CandidateRecordViewBorrowsThePayload) {
  std::vector<CandidateRecord> band = sorted_band(workload(false));
  band.resize(16);
  const std::vector<char> bytes = band_bytes(band);
  const std::span<const CandidateRecord> view =
      msp::decode_candidate_records(bytes, "view");
  EXPECT_EQ(static_cast<const void*>(view.data()),
            static_cast<const void*>(bytes.data()));
  EXPECT_EQ(view.size(), band.size());

  // An empty payload is an empty span, wherever it points.
  EXPECT_TRUE(msp::decode_candidate_records({}, "empty").empty());
  EXPECT_TRUE(msp::decode_candidate_records(
                  std::span<const char>(bytes.data() + 1, 0), "empty")
                  .empty());
}

TEST(RoutingWire, MisalignedCandidateRecordPayloadIsRejected) {
  std::vector<CandidateRecord> band = sorted_band(workload(false));
  band.resize(4);
  const std::vector<char> bytes = band_bytes(band);
  for (std::size_t shift = 1; shift < alignof(CandidateRecord); ++shift) {
    std::vector<char> storage(bytes.size() + alignof(CandidateRecord));
    std::copy(bytes.begin(), bytes.end(), storage.begin() + shift);
    const std::span<const char> shifted(storage.data() + shift, bytes.size());
    try {
      msp::decode_candidate_records(shifted, "shifted band");
      ADD_FAILURE() << "payload at offset " << shift << " was accepted";
    } catch (const IoError& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("shifted band"), std::string::npos) << message;
      EXPECT_NE(message.find("aligned"), std::string::npos) << message;
    }
  }
}

TEST(RoutingWire, TornCandidateRecordPayloadsAreRejected) {
  std::vector<CandidateRecord> band = sorted_band(workload(false));
  band.resize(4);
  const std::vector<char> bytes = band_bytes(band);
  for (const std::size_t size :
       {std::size_t{1}, sizeof(CandidateRecord) - 1,
        sizeof(CandidateRecord) + 8, bytes.size() - 1}) {
    try {
      msp::decode_candidate_records(
          std::span<const char>(bytes.data(), size), "torn band");
      ADD_FAILURE() << "a " << size << "-byte payload was accepted";
    } catch (const IoError& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("whole number"), std::string::npos) << message;
    }
  }
}

// The candidate store range-fetches a record range of another rank's store
// and decodes it in place; a corrupted record inside the range must throw
// there, and an intact range beside it must still decode.
TEST(RoutingWire, CorruptedRecordInAStoreRangeFetchIsRejected) {
  std::vector<CandidateRecord> band = sorted_band(workload(false));
  band.resize(8);
  band[5].end = 0xFF;
  const std::vector<char> bytes = band_bytes(band);
  const sim::Runtime runtime(2);
  runtime.run([&](sim::Comm& comm) {
    sim::Window window(comm, bytes);
    std::vector<char> fetched;
    sim::RmaRequest intact = window.rget_range(
        1 - comm.rank(), 0, 4 * sizeof(CandidateRecord), fetched, 1);
    window.wait(intact);
    EXPECT_EQ(msp::decode_candidate_records(fetched, "store range").size(),
              4u);
    sim::RmaRequest corrupt =
        window.rget_range(1 - comm.rank(), 4 * sizeof(CandidateRecord),
                          4 * sizeof(CandidateRecord), fetched, 1);
    window.wait(corrupt);
    try {
      msp::decode_candidate_records(fetched, "store range");
      ADD_FAILURE() << "corrupted store range was accepted";
    } catch (const IoError& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("store range: record 1: end"), std::string::npos)
          << message;
    }
    window.fence();
  });
}

// One shard image, one exchange: the image a ring exposes carries exactly
// what its receiver scores, and the routing state travels once, complete.

TEST(RoutingWire, EachDecoderRejectsTheOtherFormat) {
  const Workload& w = workload(false);
  const CandidateIndex index = CandidateIndex::build(w.db, make_config(0.05));
  const std::vector<char> plain = pack_database(w.db);
  const std::vector<char> shard = pack_shard(w.db, index);
  EXPECT_EQ(unpack_database(plain).proteins.size(), w.db.proteins.size());
  EXPECT_EQ(unpack_shard(shard).entries.size(), index.size());
  EXPECT_THROW(unpack_shard(plain), IoError);
  EXPECT_THROW(unpack_database(shard), IoError);
}

// Routing changes which shards a rank fetches, never what a shard's image
// holds: every rank exposes the same image, so the D_local + D_recv +
// D_comp footprint is identical with mass_routing on and off, and at a
// window wide enough that nothing is skipped so is every fetch.
TEST(RoutingWire, AlgorithmAShardImageIsTheSameWithRoutingOnAndOff) {
  const Workload& w = workload(false);
  const sim::Runtime runtime(4);
  for (const double tolerance : {0.05, 500.0}) {
    const SearchConfig config = make_config(tolerance);
    AlgorithmAOptions options;
    options.mass_routing = true;
    const ParallelRunResult routed =
        run_algorithm_a(runtime, w.image, w.queries, config, options);
    options.mass_routing = false;
    const ParallelRunResult unrouted =
        run_algorithm_a(runtime, w.image, w.queries, config, options);
    expect_hits_identical(routed.hits, unrouted.hits, "routed vs unrouted");
    const bool skipped = routed.report.sum_counter("route_steps_skipped") > 0;
    EXPECT_EQ(skipped, tolerance < 1.0) << "tolerance " << tolerance;
    for (std::size_t r = 0; r < routed.report.ranks.size(); ++r) {
      const sim::RankStats& on = routed.report.ranks[r];
      const sim::RankStats& off = unrouted.report.ranks[r];
      EXPECT_EQ(on.peak_memory_bytes, off.peak_memory_bytes)
          << "tolerance " << tolerance << " rank " << r;
      if (!skipped) {
        EXPECT_EQ(on.rget_issued_seconds, off.rget_issued_seconds)
            << "tolerance " << tolerance << " rank " << r;
      }
    }
  }
}

TEST(RoutingWire, ExchangeCoversEveryShard) {
  constexpr int p = 5;
  // Rank r summarizes r masses, so shard 0 is provably empty.
  const auto masses_of = [](int r) {
    std::vector<double> masses;
    for (int k = 0; k < r; ++k) masses.push_back(600.0 + 50.0 * r + k);
    return masses;
  };
  std::vector<std::size_t> mismatches(p, 0);
  sim::Runtime(p).run([&](sim::Comm& comm) {
    const ShardMassMap map = ShardMassMap::exchange(
        comm, MassHistogram::build(masses_of(comm.rank())));
    std::size_t& bad = mismatches[static_cast<std::size_t>(comm.rank())];
    if (map.shard_count() != p) ++bad;
    for (int j = 0; j < p; ++j) {
      const std::vector<double> masses = masses_of(j);
      if (map.histogram(j).total() != masses.size()) ++bad;
      if (map.needed(j, masses, 0.01, 0.01) != !masses.empty()) ++bad;
    }
    try {
      (void)map.histogram(p);
      ++bad;
    } catch (const InvalidArgument&) {
    }
  });
  for (int r = 0; r < p; ++r)
    EXPECT_EQ(mismatches[static_cast<std::size_t>(r)], 0u) << "rank " << r;
}

}  // namespace
}  // namespace msp
