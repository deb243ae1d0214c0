#include "core/query_transport.hpp"

#include <algorithm>

#include "core/packdb.hpp"
#include "core/partition.hpp"
#include "core/rank_steps.hpp"
#include "core/search_engine.hpp"
#include "scoring/top_hits.hpp"
#include "simmpi/comm.hpp"
#include "util/error.hpp"

namespace msp {

ParallelRunResult run_query_transport(const sim::Runtime& runtime,
                                      const std::string& fasta_image,
                                      const std::vector<Spectrum>& queries,
                                      const SearchConfig& config) {
  if (runtime.faults().has_crashes())
    throw FaultUnrecoverable(
        "query transport: a rank's static shard has no replica to recover "
        "it from");
  const int p = runtime.size();
  const SearchEngine engine(config);

  QueryHits all_hits(queries.size());

  sim::RunReport report = runtime.run([&](sim::Comm& comm) {
    const int rank = comm.rank();
    const auto& cost = comm.compute_model();

    // Static local database shard (never moves — that is the point).
    comm.trace_mark("QT load+index");
    const ProteinDatabase local_db = detail::load_rank_chunk(comm, fasta_image);
    std::size_t db_bytes = 0;
    for (const Protein& protein : local_db.proteins)
      db_bytes += protein.residues.size() + protein.id.size();
    comm.charge_alloc(db_bytes);
    // The static shard is indexed once, clipped to the whole query set's
    // envelope, into an image scored in place for all p query batches —
    // query transport benefits most, since its shard never moves (the image
    // never ships either: queries move).
    const std::vector<char> local_image = detail::build_shard_image(
        comm, local_db, config, detail::query_mass_envelope(engine, queries));
    const ShardView local = unpack_shard(local_image);

    // Local query block, exposed for ring transport as packed bytes.
    const QueryRange block = query_block(queries.size(), rank, p);
    const std::span<const Spectrum> local_queries(queries.data() + block.begin,
                                                  block.count());
    std::vector<char> local_query_pack = pack_spectra(local_queries);
    comm.charge_alloc(local_query_pack.size());
    sim::Window window(comm, local_query_pack);

    // Partial results for EVERY query block this rank scored — the O(m·τ)
    // state the database-transport design avoids.
    std::vector<std::vector<std::vector<Hit>>> partial(
        static_cast<std::size_t>(p));
    const int pulls = comm.network().concurrent_pulls(p);

    std::vector<char> incoming;
    for (int s = 0; s < p; ++s) {
      comm.trace_mark("QT ring step " + std::to_string(s));
      const int j = (rank + s) % p;
      std::vector<Spectrum> batch;
      if (j == rank) {
        batch.assign(local_queries.begin(), local_queries.end());
      } else {
        sim::RmaRequest fetch = window.rget(j, incoming, pulls);
        window.wait(fetch);
        batch = unpack_spectra(incoming);
      }
      const PreparedQueries prepared = engine.prepare(batch);
      comm.clock().charge_compute(static_cast<double>(batch.size()) *
                                  cost.seconds_per_query_prep);
      std::vector<TopK<Hit>> tops = engine.make_tops(batch.size());
      detail::search_resident(comm, engine, local, prepared, tops);
      partial[static_cast<std::size_t>(j)] = engine.finalize(tops);
      window.fence();
    }
    // Window close is collective (MPI_Win_free semantics).
    window.fence();

    // Merge phase: ship partial lists to each block's owner (the
    // serialization step the paper's database transport avoids).
    comm.trace_mark("QT merge");
    std::vector<std::vector<char>> send(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r)
      send[static_cast<std::size_t>(r)] =
          pack_hits(partial[static_cast<std::size_t>(r)]);
    const std::vector<std::vector<char>> received = comm.alltoallv(send);

    std::vector<TopK<Hit>> merged = engine.make_tops(block.count());
    for (const auto& payload : received) {
      const auto partial_hits = unpack_hits(payload);
      MSP_CHECK(partial_hits.size() == block.count());
      for (std::size_t q = 0; q < partial_hits.size(); ++q)
        for (const Hit& hit : partial_hits[q]) merged[q].offer(hit);
    }
    comm.clock().charge_compute(static_cast<double>(block.count() * p) *
                                cost.seconds_per_hit_update *
                                static_cast<double>(config.tau));

    detail::publish_hits(comm, engine, merged, all_hits, block.begin);
  });

  ParallelRunResult result;
  result.candidates = report.sum_counter("candidates");
  result.report = std::move(report);
  result.hits = std::move(all_hits);
  return result;
}

}  // namespace msp
