// google-benchmark micro-benchmarks for the serial kernels: where the per-
// candidate cost ρ actually goes. These calibrate the ComputeModel's
// seconds_per_candidate against the real (host) cost of each stage.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "core/candidate_index.hpp"
#include "core/candidate_source.hpp"
#include "core/fragment_index.hpp"
#include "core/search_engine.hpp"
#include "dbgen/protein_gen.hpp"
#include "dbgen/query_gen.hpp"
#include "mass/digest.hpp"
#include "scoring/hyperscore.hpp"
#include "scoring/likelihood.hpp"
#include "scoring/shared_peak.hpp"
#include "spectra/generator.hpp"
#include "spectra/theoretical.hpp"
#include "util/rng.hpp"

namespace {

using namespace msp;

const Spectrum& sample_spectrum() {
  static const Spectrum spectrum = [] {
    SpectrumNoiseModel model;
    Xoshiro256 rng(42);
    return simulate_spectrum("ACDEFGHIKLMNPQRSTVWYK", model, rng);
  }();
  return spectrum;
}

void BM_PeptideMass(benchmark::State& state) {
  const std::string peptide = "ACDEFGHIKLMNPQRSTVWY";
  for (auto _ : state) benchmark::DoNotOptimize(peptide_mass(peptide));
}
BENCHMARK(BM_PeptideMass);

void BM_FragmentIons(benchmark::State& state) {
  const std::string peptide(static_cast<std::size_t>(state.range(0)), 'A');
  for (auto _ : state) benchmark::DoNotOptimize(fragment_ions(peptide));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FragmentIons)->Arg(8)->Arg(16)->Arg(32)->Complexity();

// Same ladder through the workspace overload — the delta against
// BM_FragmentIons is what the shared fragment-ion workspace saves per call
// (allocation + no return-by-value) once the buffers are warm.
void BM_FragmentIonsInto(benchmark::State& state) {
  const std::string peptide(static_cast<std::size_t>(state.range(0)), 'A');
  const TheoreticalOptions options;
  FragmentIonWorkspace workspace;
  for (auto _ : state)
    benchmark::DoNotOptimize(fragment_ions_into(peptide, options, workspace));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FragmentIonsInto)->Arg(8)->Arg(16)->Arg(32)->Complexity();

// The fused ladder build every kernel calls (bench_kernel_ablation tracks
// its ratio over the two-step path); Arg is the peptide length.
void BM_PeptideLadder(benchmark::State& state) {
  const std::string peptide(static_cast<std::size_t>(state.range(0)), 'A');
  FragmentIonWorkspace workspace;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        build_peptide_ladder(peptide, kDefaultBinWidth, workspace));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PeptideLadder)->Arg(8)->Arg(16)->Arg(32)->Complexity();

void BM_ScoreSharedPeak(benchmark::State& state) {
  const BinnedSpectrum binned(sample_spectrum());
  for (auto _ : state)
    benchmark::DoNotOptimize(shared_peak_count(binned, "ACDEFGHIKLMNPQRSTVWYK"));
}
BENCHMARK(BM_ScoreSharedPeak);

void BM_ScoreHyperscore(benchmark::State& state) {
  const BinnedSpectrum binned(sample_spectrum());
  for (auto _ : state)
    benchmark::DoNotOptimize(hyperscore(binned, "ACDEFGHIKLMNPQRSTVWYK"));
}
BENCHMARK(BM_ScoreHyperscore);

void BM_ScoreLikelihood(benchmark::State& state) {
  const QueryContext context(sample_spectrum());
  for (auto _ : state)
    benchmark::DoNotOptimize(likelihood_ratio(context, "ACDEFGHIKLMNPQRSTVWYK"));
}
BENCHMARK(BM_ScoreLikelihood);

void BM_Digest(benchmark::State& state) {
  ProteinGenOptions options;
  options.sequence_count = 1;
  options.mean_length = 400;
  const ProteinDatabase db = generate_proteins(options);
  DigestOptions digest;
  digest.missed_cleavages = 2;
  for (auto _ : state)
    benchmark::DoNotOptimize(digest_tryptic(db.proteins[0].residues, digest));
}
BENCHMARK(BM_Digest);

// Shared setup for the shard-search benchmarks so the reference, indexed,
// and threaded variants time the exact same shard and query batch.
struct ShardBench {
  explicit ShardBench(std::size_t sequences, std::size_t kernel_threads = 1) {
    ProteinGenOptions db_options;
    db_options.sequence_count = sequences;
    db = generate_proteins(db_options);
    QueryGenOptions q_options;
    q_options.query_count = 20;
    queries = spectra_of(generate_queries(db, q_options));
    SearchConfig config;
    config.model = ScoreModel::kLikelihood;
    config.kernel_threads = kernel_threads;
    engine.emplace(config);
    prepared = engine->prepare(queries);
    index = CandidateIndex::build(db, config);
  }

  ProteinDatabase db;
  std::vector<Spectrum> queries;
  std::optional<SearchEngine> engine;
  PreparedQueries prepared;
  CandidateIndex index;
};

void report_candidates(benchmark::State& state, std::uint64_t candidates,
                       std::int64_t n) {
  state.counters["cand/s"] = benchmark::Counter(
      static_cast<double>(candidates), benchmark::Counter::kIsRate);
  state.SetComplexityN(n);
}

void BM_SearchShard(benchmark::State& state) {
  const ShardBench bench(static_cast<std::size_t>(state.range(0)));
  std::uint64_t candidates = 0;
  for (auto _ : state) {
    auto tops = bench.engine->make_tops(bench.queries.size());
    candidates += bench.engine
                      ->search_shard(bench.db, bench.prepared, tops, nullptr,
                                     &bench.index)
                      .candidates_evaluated;
  }
  report_candidates(state, candidates, state.range(0));
}
BENCHMARK(BM_SearchShard)->Arg(250)->Arg(500)->Arg(1000)->Complexity();

// The pre-index kernel: re-digests the shard and rebuilds every candidate's
// ions per query. The gap against BM_SearchShard is the candidate-centric
// refactor's whole-kernel win (see bench_kernel_ablation for the tracked
// number).
void BM_SearchShardReference(benchmark::State& state) {
  const ShardBench bench(static_cast<std::size_t>(state.range(0)));
  std::uint64_t candidates = 0;
  for (auto _ : state) {
    auto tops = bench.engine->make_tops(bench.queries.size());
    candidates +=
        bench.engine->search_shard_reference(bench.db, bench.prepared, tops)
            .candidates_evaluated;
  }
  report_candidates(state, candidates, state.range(0));
}
BENCHMARK(BM_SearchShardReference)->Arg(250)->Arg(500)->Arg(1000)->Complexity();

// Intra-rank threading over the index blocks; Arg is kernel_threads on a
// fixed 1000-sequence shard. Scaling requires real cores — on a 1-CPU
// runner the curve is flat, which is itself worth seeing in CI logs.
void BM_SearchShardThreaded(benchmark::State& state) {
  const ShardBench bench(1000, static_cast<std::size_t>(state.range(0)));
  std::uint64_t candidates = 0;
  for (auto _ : state) {
    auto tops = bench.engine->make_tops(bench.queries.size());
    candidates += bench.engine
                      ->search_shard(bench.db, bench.prepared, tops, nullptr,
                                     &bench.index)
                      .candidates_evaluated;
  }
  report_candidates(state, candidates, state.range(0));
}
BENCHMARK(BM_SearchShardThreaded)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// What pack time pays so that query time doesn't: full digest + fragment
// mass enumeration + sort for one shard.
void BM_CandidateIndexBuild(benchmark::State& state) {
  ProteinGenOptions db_options;
  db_options.sequence_count = static_cast<std::size_t>(state.range(0));
  const ProteinDatabase db = generate_proteins(db_options);
  const SearchConfig config;
  for (auto _ : state)
    benchmark::DoNotOptimize(CandidateIndex::build(db, config));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CandidateIndexBuild)->Arg(250)->Arg(500)->Arg(1000)->Complexity();

// The fragment-ion index's one CSR writer: every candidate's b/y ladder
// binned and scattered into its MSPARFRG record, the trailer an
// open-search shard image carries.
void BM_FragmentIndexBuild(benchmark::State& state) {
  ProteinGenOptions db_options;
  db_options.sequence_count = static_cast<std::size_t>(state.range(0));
  const ProteinDatabase db = generate_proteins(db_options);
  const SearchConfig config;
  const CandidateIndex index = CandidateIndex::build(db, config);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        FragmentIndex::build(db, index, config.bin_width));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FragmentIndexBuild)->Arg(250)->Arg(500)->Arg(1000)->Complexity();

// The open-search vote: FragmentIndexCandidateSource::collect over every
// hypothesis of a prepared query set, in mass order, as one kernel block
// runs it (±200 Da, vote gate 4). A fresh source per pass, so each pass
// walks the posting lists from their starts.
void BM_FragmentVote(benchmark::State& state) {
  ProteinGenOptions db_options;
  db_options.sequence_count = static_cast<std::size_t>(state.range(0));
  const ProteinDatabase db = generate_proteins(db_options);
  QueryGenOptions q_options;
  q_options.query_count = 64;
  const std::vector<Spectrum> queries =
      spectra_of(generate_queries(db, q_options));
  SearchConfig config;
  config.open_window_da = 200.0;
  config.min_fragment_votes = 4;
  const SearchEngine engine(config);
  const PreparedQueries prepared = engine.prepare(queries);
  const CandidateIndex index = CandidateIndex::build(db, config);
  const FragmentIndex fragment =
      FragmentIndex::build(db, index, config.bin_width);
  const std::span<const IndexedCandidate> entries = index.entries();
  const auto ordinal_of = [&entries](double mass) {
    return static_cast<std::size_t>(
        std::lower_bound(entries.begin(), entries.end(), mass,
                         [](const IndexedCandidate& entry, double m) {
                           return entry.mass < m;
                         }) -
        entries.begin());
  };
  std::vector<std::pair<std::size_t, std::size_t>> windows;
  for (const double mass : prepared.sorted_masses)
    windows.emplace_back(ordinal_of(mass - config.window_below()),
                         ordinal_of(std::nextafter(
                             mass + config.window_above(), HUGE_VAL)));

  std::uint64_t postings = 0;
  std::vector<std::uint32_t> survivors;
  for (auto _ : state) {
    FragmentIndexCandidateSource source(fragment.view(), config.vote_gate());
    ShardSearchStats stats;
    for (std::size_t k = 0; k < windows.size(); ++k) {
      const std::uint32_t q = prepared.order[k];
      source.collect(prepared.contexts[q], prepared.occupied[q],
                     windows[k].first, windows[k].second, survivors, stats);
      benchmark::DoNotOptimize(survivors.data());
    }
    benchmark::ClobberMemory();
    postings += stats.postings_scanned;
  }
  state.counters["postings/s"] = benchmark::Counter(
      static_cast<double>(postings), benchmark::Counter::kIsRate);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FragmentVote)->Arg(250)->Arg(500)->Arg(1000)->Complexity();

void BM_PrepareQuery(benchmark::State& state) {
  SearchConfig config;
  const SearchEngine engine(config);
  const std::vector<Spectrum> one{sample_spectrum()};
  for (auto _ : state) benchmark::DoNotOptimize(engine.prepare(one));
}
BENCHMARK(BM_PrepareQuery);

}  // namespace
