#include "core/rank_steps.hpp"

#include <algorithm>

#include "core/partition.hpp"
#include "util/error.hpp"

namespace msp::detail {

ProteinDatabase load_rank_chunk(sim::Comm& comm,
                                const std::string& fasta_image) {
  ProteinDatabase db =
      load_database_shard(fasta_image, comm.rank(), comm.size());
  comm.clock().charge_io(static_cast<double>(db.total_residues()) *
                         comm.compute_model().seconds_per_residue_load);
  return db;
}

std::size_t charge_query_block(sim::Comm& comm,
                               std::span<const Spectrum> queries) {
  std::size_t bytes = 0;
  for (const Spectrum& query : queries)
    bytes += query.peaks().size() * sizeof(Peak) + 4096;
  comm.charge_alloc(bytes);
  return bytes;
}

MassEnvelope query_mass_envelope(const SearchEngine& engine,
                                 std::span<const Spectrum> queries) {
  MassEnvelope envelope;
  envelope.lo = MassEnvelope::kInf;
  envelope.hi = -MassEnvelope::kInf;
  envelope.below = engine.config().window_below();
  envelope.above = engine.config().window_above();
  for (const Spectrum& query : queries) {
    for (const double mass : engine.hypothesis_masses(query)) {
      envelope.lo = std::min(envelope.lo, mass);
      envelope.hi = std::max(envelope.hi, mass);
    }
  }
  return envelope;
}

std::vector<char> build_shard_image(sim::Comm& comm, const ProteinDatabase& db,
                                    const SearchConfig& config,
                                    const MassEnvelope& envelope) {
  // Each entry costs one fragment-mass computation, the same unit as
  // Algorithm B's m/z sort; each posting (= theoretical ion) one more.
  const double seconds_per_mz = comm.compute_model().seconds_per_mz;
  const CandidateIndex index = CandidateIndex::build(db, config, envelope);
  comm.clock().charge_compute(static_cast<double>(index.size()) *
                              seconds_per_mz);
  comm.bump("index_entries", index.size());
  const bool has_fragment =
      config.open_search() &&
      config.candidate_source != CandidateSourceKind::kMassWindow;
  if (!has_fragment) return pack_shard(db, index);
  ShardImage image = pack_shard(db, index, config.bin_width);
  comm.clock().charge_compute(static_cast<double>(image.postings) *
                              seconds_per_mz);
  comm.bump("fragment_postings", image.postings);
  return std::move(image.bytes);
}

void search_resident(sim::Comm& comm, const SearchEngine& engine,
                     const ShardView& shard, const PreparedQueries& prepared,
                     std::vector<TopK<Hit>>& tops) {
  charge_kernel(comm, engine.search_shard(shard, prepared, tops));
}

void publish_hits(sim::Comm& comm, const SearchEngine& engine,
                  std::vector<TopK<Hit>>& tops, QueryHits& all_hits,
                  std::size_t first_slot) {
  QueryHits hits = engine.finalize(tops);
  // Index-miss queries (no candidate cleared the vote gate anywhere) are
  // the de novo fallback lane's input; the counter lets callers size it.
  if (engine.config().open_search()) {
    std::uint64_t misses = 0;
    for (const std::vector<Hit>& per_query : hits)
      if (per_query.empty()) ++misses;
    comm.bump("open_index_miss_queries", misses);
  }
  std::size_t reported = 0;
  for (std::size_t q = 0; q < hits.size(); ++q) {
    reported += hits[q].size();
    all_hits[first_slot + q] = std::move(hits[q]);
  }
  comm.clock().charge_io(static_cast<double>(reported) *
                         comm.compute_model().seconds_per_hit_output);
  comm.bump("hits_reported", reported);
}

ShardWindow::ShardWindow(sim::Comm& comm, std::span<const char> local_shard,
                         int horizon)
    : comm_(comm),
      horizon_(horizon),
      pulls_(comm.network().concurrent_pulls(comm.size())),
      window_(comm, expose(local_shard)) {
  const int p = comm_.size();
  std::size_t max_shard = 0;
  for (int r = 0; r < p; ++r)
    max_shard = std::max(max_shard, window_.shard_size(r));
  comm_.charge_alloc(2 * max_shard);  // D_recv + D_comp

  // The replica is pulled before the first step, so the copy exists before
  // any crash can fire.
  if (comm_.faults().has_crashes()) {
    const int predecessor = (comm_.rank() + p - 1) % p;
    sim::RmaRequest pull = window_.rget(predecessor, replica_, pulls_);
    window_.wait(pull);
    comm_.charge_alloc(replica_.size());
    replica_window_.emplace(
        comm_, std::span<const char>(replica_.data(), replica_.size()));
  }
}

std::span<const char> ShardWindow::expose(
    std::span<const char> local_shard) const {
  if (comm_.faults().has_crashes()) {
    int survivors = 0;
    for (int r = 0; r < comm_.size(); ++r)
      if (crash_step(r) < 0) ++survivors;
    if (survivors == 0)
      throw FaultUnrecoverable(
          "fault schedule kills every rank of the ring — nobody left to "
          "recover its queries");
  }
  comm_.charge_alloc(local_shard.size());  // D_local
  return local_shard;
}

int ShardWindow::crash_step(int r) const {
  const int step = comm_.faults().crash_step(comm_.global_rank_of(r));
  return step >= 0 && step < horizon_ ? step : -1;
}

bool ShardWindow::dead_at(int r, int at_step) const {
  const int step = crash_step(r);
  return step >= 0 && step <= at_step;
}

std::pair<sim::Window*, int> ShardWindow::source(int owner, int at_step) {
  // Crashes are step-boundary events: a transfer issued before the owner's
  // crash step completes normally.
  if (!dead_at(owner, at_step)) return {&window_, owner};
  const int holder = (owner + 1) % comm_.size();
  if (dead_at(holder, at_step))
    throw FaultUnrecoverable("shard " + std::to_string(owner) +
                             ": owner and replica holder " +
                             std::to_string(holder) + " both crashed");
  return {&*replica_window_, holder};
}

ShardWindow::Get ShardWindow::issue(int owner, int at_step,
                                    std::vector<char>& dest) {
  const auto [window, target] = source(owner, at_step);
  return Get{window->rget(target, dest, pulls_), window};
}

std::span<const char> ShardWindow::resident(int owner, int at_step) {
  if (comp_owner_ != owner) {
    issue(owner, at_step, comp_).wait();
    comp_owner_ = owner;
  }
  return comp_;
}

void ShardWindow::prefetch(int owner, int at_step) {
  if (owner == comm_.rank()) return;
  pending_ = issue(owner, at_step, recv_);
  pending_owner_ = owner;
}

void ShardWindow::settle() {
  if (!pending_.request.active) return;
  // Wait before the swap: D_recv belongs to the transfer until then (the
  // destination-buffer lifetime rule, simmpi/comm.hpp).
  pending_.wait();
  std::swap(comp_, recv_);
  comp_owner_ = pending_owner_;
}

std::span<const char> ShardWindow::fetch(int owner, int at_step) {
  issue(owner, at_step, recv_).wait();
  return recv_;
}

std::span<const char> ShardWindow::fetch_range(int owner, int at_step,
                                               std::size_t offset,
                                               std::size_t length) {
  const auto [window, target] = source(owner, at_step);
  sim::RmaRequest get =
      window->rget_range(target, offset, length, range_, pulls_);
  window->wait(get);
  return range_;
}

}  // namespace msp::detail
