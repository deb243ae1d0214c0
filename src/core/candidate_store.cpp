#include "core/candidate_store.hpp"

#include <algorithm>
#include <array>

#include "core/partition.hpp"
#include "core/rank_steps.hpp"
#include "core/search_engine.hpp"
#include "mass/amino_acid.hpp"
#include "scoring/top_hits.hpp"
#include "simmpi/comm.hpp"
#include "util/error.hpp"

namespace msp {
namespace {

constexpr std::size_t kDirectoryEntries = 256;

/// Per-rank store metadata exchanged after the sort: record count, mass
/// extremes, and the (implicitly indexed) mass directory.
struct StoreMeta {
  std::uint64_t records = 0;
  double min_mass = 0.0;
  double max_mass = 0.0;
  std::array<double, kDirectoryEntries> directory{};
};
static_assert(std::is_trivially_copyable_v<StoreMeta>);

StoreMeta make_meta(const std::vector<CandidateRecord>& records) {
  StoreMeta meta;
  meta.records = records.size();
  meta.min_mass = records.empty() ? 0.0 : records.front().mass;
  meta.max_mass = records.empty() ? 0.0 : records.back().mass;
  for (std::size_t i = 0; i < kDirectoryEntries; ++i) {
    const std::size_t index =
        records.empty() ? 0 : i * records.size() / kDirectoryEntries;
    meta.directory[i] = records.empty() ? 0.0 : records[index].mass;
  }
  return meta;
}

/// Record-index range [first, last) on `meta`'s rank that could contain
/// masses in [lo, hi], using the coarse directory (over-approximates by at
/// most one directory stride per side).
std::pair<std::size_t, std::size_t> directory_range(const StoreMeta& meta,
                                                    double lo, double hi) {
  if (meta.records == 0 || hi < meta.min_mass || lo > meta.max_mass)
    return {0, 0};
  std::size_t first_sample = 0;
  while (first_sample + 1 < kDirectoryEntries &&
         meta.directory[first_sample + 1] < lo)
    ++first_sample;
  std::size_t last_sample = first_sample;
  while (last_sample + 1 < kDirectoryEntries &&
         meta.directory[last_sample] <= hi)
    ++last_sample;
  const std::size_t first =
      first_sample * meta.records / kDirectoryEntries;
  const std::size_t last =
      last_sample + 1 >= kDirectoryEntries
          ? meta.records
          : std::min<std::size_t>(
                meta.records,
                (last_sample + 1) * meta.records / kDirectoryEntries + 1);
  return {first, last};
}

}  // namespace

CandidateStoreResult run_candidate_store(const sim::Runtime& runtime,
                                         const std::string& fasta_image,
                                         const std::vector<Spectrum>& queries,
                                         const SearchConfig& config) {
  MSP_CHECK_MSG(config.candidate_mode == CandidateMode::kPrefixSuffix,
                "candidate store implements the paper's prefix/suffix rule");
  MSP_CHECK_MSG(config.max_candidate_length <
                    sizeof(CandidateRecord{}.peptide),
                "candidate store caps peptide length at 63 residues");
  MSP_CHECK_MSG(!config.prefilter,
                "candidate store does not implement the prefilter");
  MSP_CHECK_MSG(!config.try_alternate_charges,
                "candidate store scores the reported charge only");
  MSP_CHECK_MSG(!config.open_search(),
                "candidate store implements narrow-window search only");
  if (runtime.faults().has_crashes())
    throw FaultUnrecoverable(
        "candidate store: no replica to recover a crashed rank's records "
        "from");
  const int p = runtime.size();
  const SearchEngine engine(config);

  QueryHits all_hits(queries.size());

  sim::RunReport report = runtime.run([&](sim::Comm& comm) {
    const int rank = comm.rank();
    const auto& cost = comm.compute_model();

    // ---- build: load, window, enumerate, sort ----
    comm.trace_mark("store build");
    const double build_start = comm.clock().now();
    ProteinDatabase local_db = detail::load_rank_chunk(comm, fasta_image);

    const QueryRange block = query_block(queries.size(), rank, p);
    const std::span<const Spectrum> local_queries(queries.data() + block.begin,
                                                  block.count());
    detail::charge_query_block(comm, local_queries);
    const PreparedQueries prepared = engine.prepare(local_queries);
    comm.clock().charge_compute(static_cast<double>(block.count()) *
                                cost.seconds_per_query_prep);

    // Global query-mass window bounds the store.
    const double sentinel = 1e30;
    const double local_lo =
        prepared.size() == 0 ? sentinel : prepared.min_mass();
    const double local_hi =
        prepared.size() == 0 ? -sentinel : prepared.max_mass();
    const double global_lo = comm.allreduce_min(local_lo) - config.tolerance_da;
    const double global_hi = comm.allreduce_max(local_hi) + config.tolerance_da;

    std::vector<CandidateRecord> records =
        global_lo <= global_hi
            ? enumerate_candidate_records(local_db, config, global_lo,
                                          global_hi)
            : std::vector<CandidateRecord>{};
    local_db = ProteinDatabase{};
    // Generation cost paid ONCE per stored candidate (the strategy's
    // premise); evaluations later pay only the comparison remainder.
    comm.clock().charge_compute(static_cast<double>(records.size()) *
                                cost.seconds_per_candidate *
                                cost.candidate_generation_fraction);
    comm.bump("stored", records.size());

    records = sort_candidate_records_by_mass(comm, std::move(records));
    comm.charge_alloc(records.size() * sizeof(CandidateRecord));

    const StoreMeta my_meta = make_meta(records);
    const std::vector<StoreMeta> metas = comm.allgather(my_meta);
    comm.charge_alloc(metas.size() * sizeof(StoreMeta));
    comm.bump("build_us", static_cast<std::uint64_t>(
                              (comm.clock().now() - build_start) * 1e6));

    const std::span<const char> store_bytes(
        reinterpret_cast<const char*>(records.data()),
        records.size() * sizeof(CandidateRecord));
    sim::Window window(comm, store_bytes);

    // ---- query phase: on-demand partial gets of matching ranges ----
    comm.trace_mark("store query");
    std::vector<TopK<Hit>> tops = engine.make_tops(block.count());
    const double eval_cost = cost.seconds_per_candidate *
                             (1.0 - cost.candidate_generation_fraction);
    std::vector<char> fetched;
    std::uint64_t evaluated = 0;
    std::uint64_t offered = 0;
    std::uint64_t fetches = 0;
    FragmentIonWorkspace workspace;

    for (std::size_t qi = 0; qi < block.count(); ++qi) {
      const double mass = prepared.masses[qi];
      const double lo = mass - config.tolerance_da;
      const double hi = mass + config.tolerance_da;
      for (int target = 0; target < p; ++target) {
        const auto [first, last] =
            directory_range(metas[static_cast<std::size_t>(target)], lo, hi);
        if (first >= last) continue;
        sim::RmaRequest fetch = window.rget_range(
            target, first * sizeof(CandidateRecord),
            (last - first) * sizeof(CandidateRecord), fetched, 1);
        window.wait(fetch);
        ++fetches;
        for (const CandidateRecord& record :
             decode_candidate_records(fetched, "store range")) {
          if (record.mass < lo) continue;
          if (record.mass > hi) break;  // records sorted by mass
          const std::string_view peptide(record.peptide, record.length);
          // Allocation-free scoring: the record's ions land in one reused
          // workspace (the store already paid generation at build time, so
          // only the comparison remainder is charged below).
          const double score = engine.score_candidate(
              prepared.contexts[qi], peptide,
              build_peptide_ladder(peptide, config.bin_width, workspace));
          ++evaluated;
          comm.clock().charge_compute(eval_cost);
          if (score < config.score_cutoff) continue;
          Hit hit;
          hit.score = score;
          hit.protein_id = record.protein_id;  // NUL-padded → C string
          hit.offset = record.offset;
          hit.length = record.length;
          hit.end = static_cast<FragmentEnd>(record.end);
          hit.mass = record.mass;
          hit.peptide = std::string(peptide);
          tops[qi].offer(hit);
          ++offered;
        }
      }
    }
    comm.clock().charge_compute(static_cast<double>(offered) *
                                cost.seconds_per_hit_update);
    comm.bump("candidates", evaluated);
    comm.bump("fetches", fetches);

    // Window close is collective.
    comm.barrier();

    detail::publish_hits(comm, engine, tops, all_hits, block.begin);
  });

  CandidateStoreResult result;
  result.candidates = report.sum_counter("candidates");
  result.stored_candidates = report.sum_counter("stored");
  for (const auto& r : report.ranks) {
    auto it = r.counters.find("build_us");
    if (it != r.counters.end())
      result.build_seconds = std::max(
          result.build_seconds, static_cast<double>(it->second) * 1e-6);
  }
  result.report = std::move(report);
  result.hits = std::move(all_hits);
  return result;
}

}  // namespace msp
