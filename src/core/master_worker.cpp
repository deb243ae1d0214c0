#include "core/master_worker.hpp"

#include <algorithm>
#include <deque>
#include <map>

#include "core/packdb.hpp"
#include "core/rank_steps.hpp"
#include "core/search_engine.hpp"
#include "io/fasta.hpp"
#include "io/wire_record.hpp"
#include "scoring/top_hits.hpp"
#include "simmpi/comm.hpp"
#include "util/error.hpp"

namespace msp {
namespace {

constexpr int kTagReady = 1;    ///< worker → master: give me work
constexpr int kTagBatch = 2;    ///< master → worker: [u64 begin][u64 count]
constexpr int kTagStop = 3;     ///< master → worker: no work left
constexpr int kTagCrashed = 4;  ///< worker → master: fail-stop notification

std::vector<char> encode_batch(std::size_t begin, std::size_t count) {
  wire::Writer writer;
  writer.put_u64(begin);
  writer.put_u64(count);
  return writer.take();
}

std::pair<std::size_t, std::size_t> decode_batch(
    const std::vector<char>& bytes) {
  wire::Reader reader(bytes);
  const std::uint64_t begin = reader.get_u64();
  const std::uint64_t count = reader.get_u64();
  return {begin, count};
}

}  // namespace

ParallelRunResult run_master_worker(const sim::Runtime& runtime,
                                    const std::string& fasta_image,
                                    const std::vector<Spectrum>& queries,
                                    const SearchConfig& config,
                                    const MasterWorkerOptions& options) {
  MSP_CHECK_MSG(options.batch_size >= 1, "batch size must be >= 1");
  const int p = runtime.size();
  const SearchEngine engine(config);

  // A crash schedule the protocol cannot absorb is rejected up front (and
  // deterministically): the master is a single point of failure, and at
  // least one worker must be crash-free to drain the requeued batches.
  const sim::FaultModel& faults = runtime.faults();
  if (faults.has_crashes()) {
    if (faults.crash_step(0) >= 0)
      throw FaultUnrecoverable(
          "master-worker: rank 0 (the master) has no failover");
    int surviving_workers = 0;
    for (int r = 1; r < p; ++r)
      if (faults.crash_step(r) < 0) ++surviving_workers;
    if (surviving_workers == 0)
      throw FaultUnrecoverable(
          "master-worker: fault schedule kills every worker");
  }

  QueryHits all_hits(queries.size());
  const MassEnvelope envelope = detail::query_mass_envelope(engine, queries);

  sim::RunReport report = runtime.run([&](sim::Comm& comm) {
    const int rank = comm.rank();
    const auto& cost = comm.compute_model();

    // Worker-side search of one query batch against the full database. The
    // worker's indexes are built once at load time, clipped to the whole
    // query set's envelope, into an image it scores in place for every
    // batch it is dealt (the image never ships: workers hold the whole
    // database).
    auto process_batch = [&](const ShardView& shard, std::size_t begin,
                             std::size_t count) {
      comm.trace_mark("batch [" + std::to_string(begin) + ", " +
                      std::to_string(begin + count) + ")");
      const std::span<const Spectrum> batch(queries.data() + begin, count);
      const PreparedQueries prepared = engine.prepare(batch);
      comm.clock().charge_compute(static_cast<double>(count) *
                                  cost.seconds_per_query_prep);
      std::vector<TopK<Hit>> tops = engine.make_tops(count);
      detail::search_resident(comm, engine, shard, prepared, tops);
      detail::publish_hits(comm, engine, tops, all_hits, begin);
    };

    // Every worker loads the ENTIRE database — the O(N) space baseline.
    auto load_full_database = [&]() {
      ProteinDatabase db = read_fasta_string(fasta_image);
      comm.clock().charge_io(static_cast<double>(db.total_residues()) *
                             cost.seconds_per_residue_load);
      std::size_t bytes = 0;
      for (const Protein& protein : db.proteins)
        bytes += protein.residues.size() + protein.id.size() + sizeof(Protein);
      comm.charge_alloc(bytes);
      return db;
    };

    if (p == 1) {
      // Uni-worker degenerate case: serial MSPolygraph.
      const std::vector<char> image = detail::build_shard_image(
          comm, load_full_database(), config, envelope);
      const ShardView shard = unpack_shard(image);
      for (std::size_t begin = 0; begin < queries.size();
           begin += options.batch_size) {
        const std::size_t count =
            std::min(options.batch_size, queries.size() - begin);
        process_batch(shard, begin, count);
      }
      return;
    }

    if (rank == 0) {
      // S1/S2/S4: the master loads Q and deals batches on demand. A worker
      // that fail-stops notifies the master (kTagCrashed), which re-queues
      // the worker's in-flight batch for a survivor. While any batch is in
      // flight, idle workers are parked instead of stopped — their stop
      // might otherwise race with a crashed batch bouncing back.
      comm.trace_mark("master deal loop");
      comm.charge_alloc(queries.size() * 64);  // query metadata only
      std::size_t next = 0;
      int active_workers = p - 1;
      std::map<int, std::pair<std::size_t, std::size_t>> in_flight;
      std::deque<std::pair<std::size_t, std::size_t>> requeued;
      std::deque<int> parked;

      auto deal = [&](int worker) {
        if (!requeued.empty()) {
          const auto [begin, count] = requeued.front();
          requeued.pop_front();
          comm.send(worker, kTagBatch, encode_batch(begin, count));
          in_flight[worker] = {begin, count};
        } else if (next < queries.size()) {
          const std::size_t count =
              std::min(options.batch_size, queries.size() - next);
          comm.send(worker, kTagBatch, encode_batch(next, count));
          in_flight[worker] = {next, count};
          next += count;
        } else if (!in_flight.empty()) {
          parked.push_back(worker);
        } else {
          comm.send(worker, kTagStop, {});
          --active_workers;
        }
      };

      while (active_workers > 0) {
        const sim::Comm::Message msg =
            comm.recv(sim::Comm::kAnySource, sim::Comm::kAnyTag);
        if (msg.tag == kTagCrashed) {
          comm.charge_recovery(
              faults.crash_detection_timeout_s,
              "worker " + std::to_string(msg.source) + " crashed");
          const auto it = in_flight.find(msg.source);
          if (it != in_flight.end()) {
            requeued.push_back(it->second);
            in_flight.erase(it);
            comm.bump("requeued_batches");
          }
          --active_workers;
        } else {
          MSP_CHECK_MSG(msg.tag == kTagReady,
                        "master received unexpected tag " << msg.tag);
          in_flight.erase(msg.source);
          deal(msg.source);
        }
        // Requeued work goes to parked workers first; once nothing is in
        // flight and nothing is queued, parked workers can be released.
        while (!parked.empty() && !requeued.empty()) {
          const int worker = parked.front();
          parked.pop_front();
          deal(worker);
        }
        if (in_flight.empty() && requeued.empty()) {
          while (!parked.empty()) {
            comm.send(parked.front(), kTagStop, {});
            parked.pop_front();
            --active_workers;
          }
        }
      }
      if (next < queries.size() || !requeued.empty())
        throw FaultUnrecoverable(
            "master-worker: ran out of workers with queries unassigned");
    } else {
      // S3: workers request, process, repeat. A scheduled crash fires when
      // the worker receives its crash-step'th batch: it fail-stops without
      // processing and notifies the master.
      const int my_crash_batch = faults.crash_step(comm.global_rank());
      const std::vector<char> image = detail::build_shard_image(
          comm, load_full_database(), config, envelope);
      const ShardView shard = unpack_shard(image);
      int batches_received = 0;
      while (true) {
        comm.send(0, kTagReady, {});
        const sim::Comm::Message reply = comm.recv(0);
        if (reply.tag == kTagStop) {
          // A crash scheduled past the last batch this worker saw still
          // registers (deterministically) as a crash at shutdown.
          if (my_crash_batch >= 0)
            comm.mark_crashed("at shutdown, before batch ordinal " +
                              std::to_string(my_crash_batch));
          break;
        }
        if (my_crash_batch >= 0 && batches_received == my_crash_batch) {
          comm.mark_crashed("receiving batch ordinal " +
                            std::to_string(batches_received));
          comm.send(0, kTagCrashed, {});
          break;
        }
        ++batches_received;
        const auto [begin, count] = decode_batch(reply.payload);
        process_batch(shard, begin, count);
      }
    }
  });

  ParallelRunResult result;
  result.candidates = report.sum_counter("candidates");
  result.report = std::move(report);
  result.hits = std::move(all_hits);
  return result;
}

}  // namespace msp
