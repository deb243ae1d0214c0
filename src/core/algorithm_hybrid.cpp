#include "core/algorithm_hybrid.hpp"

#include "core/partition.hpp"
#include "core/ring_search.hpp"
#include "core/search_engine.hpp"
#include "simmpi/comm.hpp"
#include "util/error.hpp"

namespace msp {

int default_group_count(int p) {
  MSP_CHECK_MSG(p >= 1, "need p >= 1");
  int best = 1;
  for (int g = 1; g * g <= p; ++g)
    if (p % g == 0) best = g;
  return best;
}

HybridResult run_algorithm_hybrid(const sim::Runtime& runtime,
                                  const std::string& fasta_image,
                                  const std::vector<Spectrum>& queries,
                                  const SearchConfig& config,
                                  const HybridOptions& options) {
  const int p = runtime.size();
  const int groups =
      options.groups == 0 ? default_group_count(p) : options.groups;
  MSP_CHECK_MSG(groups >= 1 && groups <= p && p % groups == 0,
                "group count " << groups << " must divide p=" << p);
  const int group_size = p / groups;
  const SearchEngine engine(config);

  const AlgorithmAOptions ring_options;

  QueryHits all_hits(queries.size());

  sim::RunReport report = runtime.run([&](sim::Comm& world) {
    // Sub-groups are contiguous rank blocks: group = rank / group_size.
    const int color = world.rank() / group_size;
    world.trace_mark("hybrid split g=" + std::to_string(color));
    const std::unique_ptr<sim::Comm> sub = world.split(color);

    // Queries partition across groups, then across the group's members
    // (the ring body derives each member's block — and, under crash
    // recovery, each survivor's share of a dead member's block — from the
    // group's slice); the database partitions within each group (every
    // group holds all of it — per-rank memory O(N·g/p)).
    const QueryRange group_block = query_block(queries.size(), color, groups);
    detail::ring_search_body(
        *sub, fasta_image,
        detail::RingQuerySet{
            std::span<const Spectrum>(queries.data() + group_block.begin,
                                      group_block.count()),
            group_block.begin},
        engine, ring_options, all_hits);

    // Groups finish at different times; the job ends when all do.
    world.barrier();
  });

  HybridResult result;
  result.candidates = report.sum_counter("candidates");
  result.groups_used = groups;
  result.report = std::move(report);
  result.hits = std::move(all_hits);
  return result;
}

}  // namespace msp
