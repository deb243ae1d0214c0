// Kernel ablation and wall-clock regression harness: the database-walking
// reference kernel vs. the candidate-centric indexed kernel, each under the
// scalar and (when compiled) vectorized scoring backends, on identical
// shards, measured in real (host) wall-clock time — unlike the table benches
// this is about the implementation, not the simulated cluster. Every run
// must agree hit-for-hit across kernels and backends (the bit-identity
// contract of scoring/kernel.hpp); a disagreement makes the ablation
// invalid and the bench fails.
//
// Results append to a trajectory file (BENCH_kernel.json, a JSON array with
// one entry per run). CI replays the bench and gates on the RATIOS — the
// indexed-vs-reference speedup, the simd-vs-scalar backend ratio and the
// fused-vs-two-step ladder build ratio — which transfer across machines,
// unlike absolute wall-clock; see
// `tools/check_bench.py kernel` and EXPERIMENTS.md.
#include <algorithm>
#include <iostream>
#include <limits>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "bench/wall_timer.hpp"
#include "core/candidate_index.hpp"
#include "core/search_engine.hpp"
#include "scoring/kernel.hpp"
#include "scoring/likelihood.hpp"
#include "spectra/theoretical.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

struct TimedRun {
  double seconds = 0.0;
  msp::ShardSearchStats stats;
  msp::QueryHits hits;
};

template <typename Search>
TimedRun best_of(int repeats, const msp::SearchEngine& engine,
                 std::size_t query_count, Search&& search) {
  TimedRun best;
  best.seconds = std::numeric_limits<double>::infinity();
  for (int r = 0; r < repeats; ++r) {
    std::vector<msp::TopK<msp::Hit>> tops = engine.make_tops(query_count);
    const msp::WallTimer timer;
    const msp::ShardSearchStats stats = search(tops);
    const double elapsed = timer.seconds();
    if (elapsed < best.seconds) {
      best.seconds = elapsed;
      best.stats = stats;
      best.hits = engine.finalize(tops);
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  msp::Cli cli("bench_kernel_ablation",
               "reference vs indexed kernel, scalar vs simd backend "
               "(host wall-clock)");
  cli.add_int("sequences", 2500, "database size");
  cli.add_int("queries", 150, "query spectra (searched with 3 charge "
                              "hypotheses each — the multi-hypothesis regime)");
  cli.add_int("repeats", 5, "timing repeats (best-of)");
  cli.add_int("seed", 2009, "workload seed");
  cli.add_string("threads", "1,2,4,8", "kernel_threads sweep");
  cli.add_string("label", "local",
                 "trajectory entry label (CI uses the commit hash)");
  cli.add_string("out", "BENCH_kernel.json",
                 "trajectory JSON array to append to (empty = skip)");
  if (!cli.parse(argc, argv)) return 0;

  const auto sequences = static_cast<std::size_t>(cli.get_int("sequences"));
  const auto query_count = static_cast<std::size_t>(cli.get_int("queries"));
  const int repeats = static_cast<int>(cli.get_int("repeats"));

  const msp::bench::Workload workload = msp::bench::make_workload(
      sequences, query_count, static_cast<std::uint64_t>(cli.get_int("seed")));
  msp::SearchConfig config = msp::bench::bench_config();
  // Charge-hypothesis ambiguity makes candidates match several query
  // entries — the regime where building each candidate's ions once pays.
  config.try_alternate_charges = true;

  const msp::SearchEngine engine(config);
  const msp::PreparedQueries prepared = engine.prepare(workload.queries);

  const msp::WallTimer index_timer;
  const msp::CandidateIndex index =
      msp::CandidateIndex::build(workload.db, config);
  const double index_seconds = index_timer.seconds();

  // The reference kernel under the scalar backend is the baseline every
  // speedup in this bench is measured against.
  msp::set_scoring_backend(msp::ScoringBackend::kScalar);
  const TimedRun reference =
      best_of(repeats, engine, workload.queries.size(), [&](auto& tops) {
        return engine.search_shard_reference(workload.db, prepared, tops);
      });
  const TimedRun indexed_scalar =
      best_of(repeats, engine, workload.queries.size(), [&](auto& tops) {
        return engine.search_shard(workload.db, prepared, tops, nullptr,
                                   &index);
      });

  TimedRun indexed_simd;
  if (msp::simd_compiled()) {
    msp::set_scoring_backend(msp::ScoringBackend::kSimd);
    indexed_simd =
        best_of(repeats, engine, workload.queries.size(), [&](auto& tops) {
          return engine.search_shard(workload.db, prepared, tops, nullptr,
                                     &index);
        });
  }

  // The ablation is only meaningful if every kernel/backend combination
  // agrees hit-for-hit (DESIGN.md §5j's bit-identity contract).
  if (indexed_scalar.hits != reference.hits ||
      indexed_scalar.stats.candidates_evaluated !=
          reference.stats.candidates_evaluated) {
    std::cerr << "FATAL: kernels disagree — ablation invalid\n";
    return 1;
  }
  if (msp::simd_compiled() && indexed_simd.hits != reference.hits) {
    std::cerr << "FATAL: simd backend disagrees with scalar — ablation "
                 "invalid\n";
    return 1;
  }

  const auto per_candidate = [](const msp::ShardSearchStats& stats) {
    const double scored = static_cast<double>(stats.candidates_evaluated +
                                              stats.candidates_prefiltered);
    return scored == 0.0 ? 0.0
                         : static_cast<double>(stats.ions_built) / scored;
  };
  const double fastest_indexed = msp::simd_compiled()
                                     ? indexed_simd.seconds
                                     : indexed_scalar.seconds;
  const double speedup = reference.seconds / fastest_indexed;

  msp::Table table({"kernel", "backend", "threads", "wall (ms)", "speedup",
                    "ions built", "ions/candidate"});
  table.add_row({"reference", "scalar", "1",
                 msp::Table::cell(reference.seconds * 1e3), "1.00",
                 std::to_string(reference.stats.ions_built),
                 msp::Table::cell(per_candidate(reference.stats))});
  table.add_row({"indexed", "scalar", "1",
                 msp::Table::cell(indexed_scalar.seconds * 1e3),
                 msp::Table::cell(reference.seconds / indexed_scalar.seconds),
                 std::to_string(indexed_scalar.stats.ions_built),
                 msp::Table::cell(per_candidate(indexed_scalar.stats))});
  if (msp::simd_compiled())
    table.add_row({"indexed", "simd", "1",
                   msp::Table::cell(indexed_simd.seconds * 1e3),
                   msp::Table::cell(reference.seconds / indexed_simd.seconds),
                   std::to_string(indexed_simd.stats.ions_built),
                   msp::Table::cell(per_candidate(indexed_simd.stats))});

  // Threads sweep under the fastest backend (auto = simd when compiled).
  msp::set_scoring_backend(msp::ScoringBackend::kAuto);
  std::vector<std::pair<std::int64_t, double>> threaded;
  for (const std::int64_t threads : cli.get_int_list("threads")) {
    if (threads <= 1) continue;
    msp::SearchConfig threaded_config = config;
    threaded_config.kernel_threads = static_cast<std::size_t>(threads);
    const msp::SearchEngine threaded_engine(threaded_config);
    const TimedRun run = best_of(
        repeats, threaded_engine, workload.queries.size(), [&](auto& tops) {
          return threaded_engine.search_shard(workload.db, prepared, tops,
                                              nullptr, &index);
        });
    if (run.hits != reference.hits) {
      std::cerr << "FATAL: threaded kernel disagrees at T=" << threads << "\n";
      return 1;
    }
    threaded.emplace_back(threads, run.seconds);
    table.add_row({"indexed", "auto", std::to_string(threads),
                   msp::Table::cell(run.seconds * 1e3),
                   msp::Table::cell(reference.seconds / run.seconds),
                   std::to_string(run.stats.ions_built),
                   msp::Table::cell(per_candidate(run.stats))});
  }

  // Kernel-level throughput: the SIMD-vs-scalar claim measured on the match
  // kernel itself (the end-to-end rows above dilute it with the scalar ion
  // enumeration and model arithmetic around the kernel). The sample is
  // mass-matched (query, ladder) pairs — the pairs the engine actually
  // scores, whose ladder span tracks the query grid — drawn by striding the
  // prepared contexts and each precursor window, and small enough to stay
  // cache-resident (the engine scores each ladder right after building it,
  // so the kernel always runs on warm ladders; sweeping every ladder here
  // would measure DRAM bandwidth instead). The accumulated stats must agree
  // exactly across backends (bit-identity).
  constexpr std::size_t kKernelPairSample = 4096;
  std::vector<std::pair<std::size_t, msp::IonLadder>> pairs;
  pairs.reserve(kKernelPairSample);
  {
    msp::FragmentIonWorkspace workspace;
    const std::vector<msp::IndexedCandidate>& entries = index.entries();
    const auto first_at_or_above = [&](double mass) {
      return static_cast<std::size_t>(
          std::lower_bound(entries.begin(), entries.end(), mass,
                           [](const msp::IndexedCandidate& e, double m) {
                             return e.mass < m;
                           }) -
          entries.begin());
    };
    for (std::size_t qi = 0;
         qi < prepared.contexts.size() && pairs.size() < kKernelPairSample;
         qi += 7) {
      const double parent = prepared.contexts[qi].parent_mass();
      const std::size_t lo = first_at_or_above(parent - config.tolerance_da);
      const std::size_t hi = first_at_or_above(parent + config.tolerance_da);
      for (std::size_t c = lo; c < hi && pairs.size() < kKernelPairSample;
           c += 3) {
        const msp::IndexedCandidate& entry = entries[c];
        const msp::Protein& protein = workload.db.proteins[entry.protein];
        const std::string_view peptide =
            std::string_view(protein.residues)
                .substr(entry.offset, entry.length);
        pairs.emplace_back(
            qi, msp::build_peptide_ladder(peptide, config.bin_width,
                                          workspace));
      }
    }
  }
  struct KernelPass {
    double seconds = std::numeric_limits<double>::infinity();
    double matched_intensity = 0.0;
    std::uint64_t matched = 0;
  };
  constexpr int kKernelSweeps = 40;  // sweeps per timed repeat (stability)
  const auto kernel_pass = [&](msp::ScoringBackend backend) {
    msp::set_scoring_backend(backend);
    KernelPass best;
    for (int r = 0; r < repeats; ++r) {
      KernelPass pass;
      pass.seconds = 0.0;
      const msp::WallTimer timer;
      for (int sweep = 0; sweep < kKernelSweeps; ++sweep)
        for (const auto& [qi, ladder] : pairs) {
          const msp::PeakMatchStats stats =
              msp::match_ladder(prepared.contexts[qi].binned(), ladder);
          pass.matched += stats.matched_b + stats.matched_y;
          pass.matched_intensity += stats.matched_intensity;
        }
      pass.seconds = timer.seconds();
      if (pass.seconds < best.seconds) best = pass;
    }
    return best;
  };
  const KernelPass kernel_scalar = kernel_pass(msp::ScoringBackend::kScalar);
  KernelPass kernel_simd;
  if (msp::simd_compiled()) {
    kernel_simd = kernel_pass(msp::ScoringBackend::kSimd);
    if (kernel_simd.matched != kernel_scalar.matched ||
        kernel_simd.matched_intensity != kernel_scalar.matched_intensity) {
      std::cerr << "FATAL: kernel backends disagree on match stats\n";
      return 1;
    }
  }
  msp::set_scoring_backend(msp::ScoringBackend::kAuto);
  const double kernel_ratio =
      msp::simd_compiled() ? kernel_scalar.seconds / kernel_simd.seconds : 1.0;
  const auto per_pair_ns = [&](double seconds) {
    return seconds * 1e9 / (kKernelSweeps * static_cast<double>(pairs.size()));
  };
  // The match under the backend the indexed kernel ran (auto).
  const double match_ns = per_pair_ns(
      msp::simd_compiled() ? kernel_simd.seconds : kernel_scalar.seconds);

  // The likelihood score over the same prebuilt ladders: the match (with
  // the matched intensities it needs) plus the per-match evidence terms —
  // everything score_pair spends on a pair under ScoreModel::kLikelihood
  // before the top-τ offer.
  double likelihood_seconds = std::numeric_limits<double>::infinity();
  double likelihood_sink = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const msp::WallTimer timer;
    for (int sweep = 0; sweep < kKernelSweeps; ++sweep)
      for (const auto& [qi, ladder] : pairs)
        likelihood_sink +=
            msp::likelihood_ratio(prepared.contexts[qi], ladder);
    likelihood_seconds = std::min(likelihood_seconds, timer.seconds());
  }
  if (!(likelihood_sink == likelihood_sink)) {
    std::cerr << "FATAL: the likelihood sample scored NaN\n";
    return 1;
  }
  const double likelihood_ns = per_pair_ns(likelihood_seconds);

  // Ladder build: the two-step path (fragment_ions_into, then
  // build_ion_ladder — what the reference kernel runs) against the fused
  // build_peptide_ladder every other kernel runs, over the candidates the
  // indexed kernel builds a ladder for (every entry with a non-empty
  // window). Both must produce the same ladders.
  std::vector<std::string_view> built_peptides;
  for (const msp::IndexedCandidate& entry : index.entries()) {
    const auto lo = std::lower_bound(prepared.sorted_masses.begin(),
                                     prepared.sorted_masses.end(),
                                     entry.mass - config.window_above());
    if (lo == prepared.sorted_masses.end() ||
        !(*lo <= entry.mass + config.window_below()))
      continue;
    const msp::Protein& protein = workload.db.proteins[entry.protein];
    built_peptides.push_back(std::string_view(protein.residues)
                                 .substr(entry.offset, entry.length));
  }
  if (built_peptides.empty() ||
      built_peptides.size() != indexed_scalar.stats.ions_built) {
    std::cerr << "FATAL: ladder sample is empty or not the indexed "
                 "kernel's builds\n";
    return 1;
  }
  const auto ladder_pass = [&](auto&& build) {
    double best = std::numeric_limits<double>::infinity();
    std::uint64_t digest = 0;
    for (int r = 0; r < repeats; ++r) {
      digest = 0;
      const msp::WallTimer timer;
      for (const std::string_view peptide : built_peptides) {
        const msp::IonLadder& ladder = build(peptide);
        // Position-weighted terms with no chain between them: a serial
        // per-bin hash would add its own latency to every build timed.
        std::uint64_t bins = 0;
        for (std::size_t i = 0; i < ladder.bins.size(); ++i)
          bins += (i + 1) * static_cast<std::uint32_t>(ladder.bins[i]);
        digest = (digest * 31 + ladder.size) * 31 + ladder.b_size;
        digest = digest * 31 + bins;
      }
      best = std::min(best, timer.seconds());
    }
    return std::make_pair(
        best * 1e9 / static_cast<double>(built_peptides.size()), digest);
  };
  msp::FragmentIonWorkspace ladder_workspace;
  const msp::TheoreticalOptions ion_options;
  const auto [ladder_two_step_ns, two_step_digest] =
      ladder_pass([&](std::string_view peptide) -> const msp::IonLadder& {
        msp::build_ion_ladder(
            msp::fragment_ions_into(peptide, ion_options, ladder_workspace),
            config.bin_width, ladder_workspace.ladder);
        return ladder_workspace.ladder;
      });
  const auto [ladder_fused_ns, fused_digest] =
      ladder_pass([&](std::string_view peptide) -> const msp::IonLadder& {
        return msp::build_peptide_ladder(peptide, config.bin_width,
                                         ladder_workspace);
      });
  if (fused_digest != two_step_digest) {
    std::cerr << "FATAL: fused and two-step ladders disagree\n";
    return 1;
  }
  const double ladder_ratio = ladder_two_step_ns / ladder_fused_ns;

  std::cout << "== Kernel ablation (" << sequences << " sequences, "
            << query_count << " queries x " << config.charge_hypotheses.size()
            << " charge hypotheses, simd "
            << (msp::simd_compiled() ? "compiled" : "not compiled")
            << ") ==\n";
  table.print(std::cout);
  std::cout << "index build: " << index_seconds * 1e3
            << " ms (paid once per shard at pack time)\n";
  std::cout << "match kernel (" << pairs.size()
            << " mass-matched query/ladder pairs): scalar "
            << kernel_scalar.seconds * 1e3 << " ms";
  if (msp::simd_compiled())
    std::cout << ", simd " << kernel_simd.seconds * 1e3 << " ms ("
              << kernel_ratio << "x)";
  std::cout << "\n";
  std::cout << "ladder build (" << built_peptides.size()
            << " candidates the indexed kernel builds): two-step "
            << ladder_two_step_ns << " ns, fused " << ladder_fused_ns
            << " ns (" << ladder_ratio << "x)\n";
  // Attribute the fastest indexed run: its ladder builds at the fused
  // builder's per-ladder cost, its scored pairs at the likelihood's per-pair
  // cost (the match included); what remains is the join, the top-τ offers
  // and the hit materialization.
  const msp::ShardSearchStats& indexed_stats =
      msp::simd_compiled() ? indexed_simd.stats : indexed_scalar.stats;
  const double indexed_ms = fastest_indexed * 1e3;
  const double ladders_ms =
      static_cast<double>(indexed_stats.ions_built) * ladder_fused_ns * 1e-6;
  const double likelihood_ms =
      static_cast<double>(indexed_stats.candidates_evaluated) *
      likelihood_ns * 1e-6;
  const double match_ms =
      static_cast<double>(indexed_stats.candidates_evaluated) * match_ns *
      1e-6;
  const double remainder_ms = indexed_ms - ladders_ms - likelihood_ms;
  std::cout << "indexed kernel " << indexed_ms << " ms: ladders "
            << ladders_ms << " ms (" << indexed_stats.ions_built << " x "
            << ladder_fused_ns << " ns), likelihood " << likelihood_ms
            << " ms (" << indexed_stats.candidates_evaluated << " x "
            << likelihood_ns << " ns, of which match " << match_ms
            << " ms at " << match_ns << " ns), remainder " << remainder_ms
            << " ms (join, top-tau, hits)\n";

  msp::JsonWriter json;
  json.begin_object();
  json.field("label", cli.get_string("label"));
  json.field("sequences", sequences);
  json.field("queries", query_count);
  json.field("simd_compiled", msp::simd_compiled());
  json.field("candidates_evaluated",
             indexed_scalar.stats.candidates_evaluated);
  json.field("candidates_prefiltered",
             indexed_scalar.stats.candidates_prefiltered);
  json.field("ions_built_reference", reference.stats.ions_built);
  json.field("ions_built_indexed", indexed_scalar.stats.ions_built);
  json.field("ions_per_candidate_reference", per_candidate(reference.stats));
  json.field("ions_per_candidate_indexed",
             per_candidate(indexed_scalar.stats));
  json.field("index_build_seconds", index_seconds);
  json.field("reference_seconds", reference.seconds);
  json.field("indexed_scalar_seconds", indexed_scalar.seconds);
  json.field("speedup_indexed_scalar",
             reference.seconds / indexed_scalar.seconds);
  if (msp::simd_compiled()) {
    json.field("indexed_simd_seconds", indexed_simd.seconds);
    json.field("speedup_indexed_simd",
               reference.seconds / indexed_simd.seconds);
    json.field("simd_over_scalar",
               indexed_scalar.seconds / indexed_simd.seconds);
  }
  json.field("speedup", speedup);
  json.field("kernel_scalar_seconds", kernel_scalar.seconds);
  if (msp::simd_compiled()) {
    json.field("kernel_simd_seconds", kernel_simd.seconds);
    json.field("kernel_simd_over_scalar", kernel_ratio);
  }
  json.field("ladder_two_step_ns", ladder_two_step_ns);
  json.field("ladder_fused_ns", ladder_fused_ns);
  json.field("ladder_fused_over_two_step", ladder_ratio);
  json.field("match_ns", match_ns);
  json.field("likelihood_ns", likelihood_ns);
  json.field("indexed_ladders_ms", ladders_ms);
  json.field("indexed_likelihood_ms", likelihood_ms);
  json.field("indexed_remainder_ms", remainder_ms);
  for (const auto& [threads, seconds] : threaded) {
    json.field("indexed_seconds_t" + std::to_string(threads), seconds);
    json.field("speedup_t" + std::to_string(threads),
               reference.seconds / seconds);
  }
  json.end_object();

  // Indent the entry one level so the trajectory array reads naturally.
  std::istringstream lines(json.str());
  std::ostringstream indented;
  std::string line;
  bool first = true;
  while (std::getline(lines, line)) {
    if (!first) indented << "\n";
    indented << "  " << line;
    first = false;
  }
  msp::bench::append_trajectory(cli.get_string("out"), indented.str());
  return 0;
}
