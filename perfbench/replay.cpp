// Layer replay: a workload's inputs pushed serially through the public
// calls of each layer, every call wrapped in a benchmark-side host span.
// The end-to-end pass interleaves these same calls across rank threads and
// simmpi; replaying them one at a time on one thread attributes the host
// CPU to layers without instrumenting the program itself.
#include <algorithm>
#include <span>

#include "core/candidate_index.hpp"
#include "core/candidate_record.hpp"
#include "core/fragment_index.hpp"
#include "core/partition.hpp"
#include "core/search_engine.hpp"
#include "core/shard_map.hpp"
#include "perfbench.hpp"
#include "scoring/kernel.hpp"
#include "simmpi/runtime.hpp"
#include "spectra/theoretical.hpp"

namespace pb {
namespace {

/// Adds the process CPU time of its scope to `replay.cpu_s[name]`. The
/// replay runs on one thread (the p = 1 sort runs its rank thread while
/// this one waits), so process CPU is the layer's CPU.
class Span {
 public:
  Span(Replay& replay, const char* name)
      : replay_(replay), name_(name), start_(process_cpu_now()) {}
  ~Span() { replay_.cpu_s[name_] += process_cpu_now() - start_; }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Replay& replay_;
  const char* name_;
  double start_;
};

/// Algorithm A's per-rank layer calls: A1 load, index builds (candidate,
/// fragment, routing histogram), then each rank's query block prepared,
/// searched against every shard and finalized.
void replay_batch(const Workload& w, const Inputs& inputs, Replay& out) {
  const msp::SearchEngine engine(w.config);
  const msp::SearchConfig& config = engine.config();
  std::vector<msp::ProteinDatabase> shards(kRanks);
  std::vector<msp::CandidateIndex> indexes(kRanks);
  std::vector<msp::FragmentIndex> fragments(kRanks);
  std::vector<msp::MassHistogram> histograms(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    Span span(out, "core.partition.load_shard");
    shards[r] = msp::load_database_shard(inputs.image, r, kRanks);
  }
  for (int r = 0; r < kRanks; ++r) {
    Span span(out, "core.candidate_index.build");
    indexes[r] = msp::CandidateIndex::build(shards[r], config);
  }
  const bool ship_fragment =
      config.open_search() &&
      config.candidate_source != msp::CandidateSourceKind::kMassWindow;
  if (ship_fragment) {
    for (int r = 0; r < kRanks; ++r) {
      Span span(out, "core.fragment_index.build");
      fragments[r] =
          msp::FragmentIndex::build(shards[r], indexes[r], config.bin_width);
    }
  }
  for (int r = 0; r < kRanks; ++r) {  // Algorithm A routes by default
    Span span(out, "core.shard_map.histogram_build");
    histograms[r] = msp::MassHistogram::build(indexes[r]);
  }
  for (int r = 0; r < kRanks; ++r) {
    out.index_entries += indexes[r].size();
    out.fragment_postings += fragments[r].posting_count();
  }

  out.hits.assign(inputs.queries.size(), {});
  for (int r = 0; r < kRanks; ++r) {
    const msp::QueryRange block =
        msp::query_block(inputs.queries.size(), r, kRanks);
    const std::span<const msp::Spectrum> local(
        inputs.queries.data() + block.begin, block.count());
    msp::PreparedQueries prepared;
    {
      Span span(out, "core.search_engine.prepare");
      prepared = engine.prepare(local);
    }
    std::vector<msp::TopK<msp::Hit>> tops = engine.make_tops(local.size());
    std::vector<std::uint64_t> windowed(local.size(), 0);
    for (int j = 0; j < kRanks; ++j) {
      Span span(out, "core.search_engine.search_shard");
      const msp::ShardSearchStats stats = engine.search_shard(
          shards[j], prepared, tops, &windowed, &indexes[j],
          ship_fragment ? &fragments[j] : nullptr);
      out.evaluated += stats.candidates_evaluated;
    }
    for (const std::uint64_t n : windowed) out.windowed += n;
    msp::QueryHits block_hits;
    {
      Span span(out, "core.search_engine.finalize");
      block_hits = engine.finalize(tops);
    }
    for (std::size_t q = 0; q < block_hits.size(); ++q)
      out.hits[block.begin + q] = std::move(block_hits[q]);
  }
}

/// The serving ring's layer calls: A1 load, candidate records enumerated
/// inside the stream's mass envelope and counting-sorted by mass (one
/// band, p = 1), the band's routing histogram, then the whole stream
/// prepared, scored over the record array and finalized.
void replay_ring(const Workload& w, const Inputs& inputs,
                 double route_bucket_da, Replay& out) {
  const msp::SearchEngine engine(w.config);
  const msp::SearchConfig& config = engine.config();
  std::vector<msp::ProteinDatabase> shards(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    Span span(out, "core.partition.load_shard");
    shards[r] = msp::load_database_shard(inputs.image, r, kRanks);
  }
  double lo = 0.0;
  double hi = -1.0;
  for (const msp::Spectrum& query : inputs.queries) {
    for (const double mass : engine.hypothesis_masses(query)) {
      lo = hi < lo ? mass : std::min(lo, mass);
      hi = std::max(hi, mass);
    }
  }
  std::vector<msp::CandidateRecord> band;
  {
    Span span(out, "core.candidate_record.enumerate_sort");
    std::vector<msp::CandidateRecord> records;
    for (int r = 0; r < kRanks; ++r) {
      std::vector<msp::CandidateRecord> chunk =
          msp::enumerate_candidate_records(shards[r], config,
                                           lo - config.window_below(),
                                           hi + config.window_above());
      records.insert(records.end(), chunk.begin(), chunk.end());
    }
    const msp::sim::Runtime serial(1);
    serial.run([&](msp::sim::Comm& comm) {
      band = msp::sort_candidate_records_by_mass(comm, std::move(records));
    });
  }
  msp::MassHistogram histogram;
  {
    Span span(out, "core.shard_map.histogram_build");
    std::vector<double> masses;
    masses.reserve(band.size());
    for (const msp::CandidateRecord& record : band)
      masses.push_back(record.mass);
    histogram = msp::MassHistogram::build(std::span<const double>(masses),
                                          route_bucket_da);
  }
  require(histogram.total() == band.size(), "band histogram lost counts");

  msp::PreparedQueries prepared;
  {
    Span span(out, "core.search_engine.prepare");
    prepared = engine.prepare(inputs.queries);
  }
  std::vector<msp::TopK<msp::Hit>> tops =
      engine.make_tops(inputs.queries.size());
  {
    Span span(out, "core.search_engine.search_shard");
    const msp::ShardSearchStats stats = engine.search_records(
        std::span<const msp::CandidateRecord>(band), prepared, tops);
    out.evaluated += stats.candidates_evaluated;
    out.windowed += stats.candidates_evaluated + stats.candidates_prefiltered;
  }
  {
    Span span(out, "core.search_engine.finalize");
    out.hits = engine.finalize(tops);
  }
}

}  // namespace

Replay replay_layers(const Workload& workload, std::uint64_t seed) {
  Replay out;
  Inputs inputs;
  {
    Span span(out, "dbgen.generate");
    inputs = make_inputs(workload, seed);
  }
  switch (workload.kind) {
    case Kind::kBatch: replay_batch(workload, inputs, out); break;
    case Kind::kServe:
      replay_ring(workload, inputs, workload.service.route_bucket_da, out);
      break;
    case Kind::kSched:
      replay_ring(workload, inputs, workload.sched.route_bucket_da, out);
      break;
  }
  return out;
}

double kernel_match_ns(const Workload& workload, const Inputs& inputs,
                       double budget_s) {
  const msp::SearchEngine engine(workload.config);
  const msp::SearchConfig& config = engine.config();
  const msp::ProteinDatabase shard =
      msp::load_database_shard(inputs.image, 0, kRanks);
  const msp::CandidateIndex index = msp::CandidateIndex::build(shard, config);
  const std::size_t query_count =
      std::min<std::size_t>(inputs.queries.size(), 64);
  const msp::PreparedQueries prepared = engine.prepare(
      std::span<const msp::Spectrum>(inputs.queries.data(), query_count));

  // Mass-matched pairs: each hypothesis against the candidates inside its
  // precursor window (at most 64 per hypothesis, 4096 in all), with every
  // candidate's ladder prebuilt the way the kernel builds it.
  const std::vector<msp::IndexedCandidate>& entries = index.entries();
  std::vector<std::pair<std::uint32_t, msp::IonLadder>> pairs;
  msp::FragmentIonWorkspace workspace;
  const msp::TheoreticalOptions ion_options;
  for (std::size_t k = 0;
       k < prepared.sorted_masses.size() && pairs.size() < 4096; ++k) {
    const double mass = prepared.sorted_masses[k];
    auto it = std::lower_bound(
        entries.begin(), entries.end(), mass - config.window_below(),
        [](const msp::IndexedCandidate& e, double m) { return e.mass < m; });
    for (int taken = 0; it != entries.end() && taken < 64 &&
                        it->mass <= mass + config.window_above();
         ++it, ++taken) {
      const msp::Protein& protein = shard.proteins[it->protein];
      const std::string_view peptide =
          std::string_view(protein.residues).substr(it->offset, it->length);
      msp::build_ion_ladder(
          msp::fragment_ions_into(peptide, ion_options, workspace),
          config.bin_width, workspace.ladder);
      pairs.emplace_back(prepared.order[k], workspace.ladder);
    }
  }
  require(!pairs.empty(), "no mass-matched pairs for the kernel microbench");

  std::vector<float> matched;
  std::size_t sink = 0;
  std::vector<double> samples;
  const double deadline = wall_now() + budget_s;
  for (int rep = 0; rep < 3 || wall_now() < deadline; ++rep) {
    const double start = wall_now();
    for (const auto& [q, ladder] : pairs) {
      const msp::PeakMatchStats stats = msp::match_ladder(
          prepared.contexts[q].binned(), ladder, &matched);
      sink += stats.matched_b + stats.matched_y;
    }
    const double ns = (wall_now() - start) * 1e9 /
                      static_cast<double>(pairs.size());
    if (rep > 0) samples.push_back(ns);  // rep 0 is the warm-up
  }
  require(sink > 0, "the kernel microbench matched no ions");
  return median(samples);
}

}  // namespace pb
