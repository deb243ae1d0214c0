// Internal: the per-rank supersteps every parallel driver is built from —
// load the rank's chunk (A1), index it, score the local queries against a
// resident shard (A2), report the top-τ lists (A3) — plus the shard window
// the rotating drivers fetch through. The window owns the paper's A2 double
// buffer (D_comp, D_recv) and the replica the crash-tolerant rings recover
// from; Algorithm A, the hybrid's sub-rings, Algorithm B's restricted ring
// and the serving ring all drive it. Each step books its own clock and
// memory charges, so a driver keeps only what makes it different: which
// shard it scores when. Not part of the public API.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/candidate_index.hpp"
#include "core/config.hpp"
#include "core/hit.hpp"
#include "core/packdb.hpp"
#include "core/search_engine.hpp"
#include "mass/peptide.hpp"
#include "scoring/top_hits.hpp"
#include "simmpi/comm.hpp"
#include "spectra/spectrum.hpp"

namespace msp::detail {

/// A1: load the (comm.rank(), comm.size()) chunk of `fasta_image` and
/// charge its residues as load I/O.
ProteinDatabase load_rank_chunk(sim::Comm& comm,
                                const std::string& fasta_image);

/// The one per-query memory rule (peak list + binned vector): charges the
/// block's footprint and returns it, for the caller to release.
std::size_t charge_query_block(sim::Comm& comm,
                               std::span<const Spectrum> queries);

/// The one envelope rule: the lowest and highest of every hypothesis mass
/// `queries` contribute (alternate charges included, exactly as prepare()
/// enumerates them) and `engine`'s precursor windows. Empty (lo > hi) when
/// there are no queries.
MassEnvelope query_mass_envelope(const SearchEngine& engine,
                                 std::span<const Spectrum> queries);

/// Build `db`'s indexes under `config`, clipped to `envelope` — the
/// envelope of every query any rank will search this shard with — straight
/// into its shard image (pack_shard), charging one seconds_per_mz per
/// candidate entry and per fragment posting and bumping the
/// `index_entries` and `fragment_postings` counters. The image is the only
/// copy of the indexes a rank keeps: it scores its own shard through
/// unpack_shard(image), exactly as it scores a fetched one.
std::vector<char> build_shard_image(sim::Comm& comm, const ProteinDatabase& db,
                                    const SearchConfig& config,
                                    const MassEnvelope& envelope);

/// A2: score `prepared` against the resident `shard` — the rank's own
/// image or a fetched one, viewed in place — and book the kernel work.
void search_resident(sim::Comm& comm, const SearchEngine& engine,
                     const ShardView& shard, const PreparedQueries& prepared,
                     std::vector<TopK<Hit>>& tops);

/// A3: finalize `tops` into all_hits[first_slot + q], counting the open
/// search's index-miss queries, charging the output I/O and bumping
/// `hits_reported`.
void publish_hits(sim::Comm& comm, const SearchEngine& engine,
                  std::vector<TopK<Hit>>& tops, QueryHits& all_hits,
                  std::size_t first_slot);

/// The rank-shard RMA window, the A2 double buffer (D_comp holds the
/// shard being scored, D_recv the masked prefetch of the next one) and,
/// when the run schedules crashes, a copy of every shard on its ring
/// successor. Crash steps index the ring's steps; a scheduled step at or
/// past `horizon` never fires on this communicator (Algorithm A's single
/// rotation passes p for it, the serving ring, whose steps are unbounded,
/// INT_MAX).
///
/// Construction is collective: it charges D_local (the exposed bytes) and
/// D_recv + D_comp (twice the largest shard), and with crashes scheduled
/// pulls the ring predecessor's shard before any crash can fire and
/// exposes it through a second window. A fetch issued at step `at_step`
/// after the owner died there is served by its successor — the same bytes
/// at the same offsets, so range fetches redirect unchanged. Throws
/// FaultUnrecoverable when the schedule kills every rank, or a shard's
/// owner and replica holder both. Returned bytes — and every ShardView of
/// them — stay valid until the next call that writes or swaps the same
/// buffer: resident() bytes until settle(), fetch() bytes until the next
/// prefetch() or fetch().
class ShardWindow {
 public:
  ShardWindow(sim::Comm& comm, std::span<const char> local_shard, int horizon);

  /// Rank r's crash step under the horizon, -1 for none.
  int crash_step(int r) const;
  /// True when rank r has crashed at or before step `at_step`.
  bool dead_at(int r, int at_step) const;
  /// True when the run schedules crashes (the replica exists).
  bool replicated() const { return replica_window_.has_value(); }

  /// D_comp holding `owner`'s shard. When no earlier prefetch delivered
  /// it, the shard is fetched blocking — the transfer fully exposed.
  std::span<const char> resident(int owner, int at_step);
  /// Masked get of `owner`'s shard into D_recv, to land under this step's
  /// scoring. The rank's own shard is never fetched: a no-op.
  void prefetch(int owner, int at_step);
  /// Wait for the pending prefetch and swap it into D_comp as the resident
  /// shard; a no-op when nothing is pending.
  void settle();
  /// Blocking, uncached fetch of `owner`'s whole shard into D_recv.
  std::span<const char> fetch(int owner, int at_step);
  /// Blocking fetch of bytes [offset, offset + length) of `owner`'s shard
  /// into a scratch buffer of its own.
  std::span<const char> fetch_range(int owner, int at_step, std::size_t offset,
                                    std::size_t length);

  /// Collective fence of the shard window.
  void fence() { window_.fence(); }
  /// Collective fence of the replica window (no-op without one): called
  /// once every survivor is done re-pulling, zombies included.
  void fence_replica() {
    if (replica_window_) replica_window_->fence();
  }

 private:
  /// The no-survivor check and the D_local charge, ahead of exposure.
  std::span<const char> expose(std::span<const char> local_shard) const;
  /// Which window serves `owner`'s shard at `at_step`, and from which rank.
  std::pair<sim::Window*, int> source(int owner, int at_step);
  /// A get in flight, on whichever window serves it.
  struct Get {
    sim::RmaRequest request;
    sim::Window* window = nullptr;
    void wait() { window->wait(request); }
  };
  /// Issue a get of `owner`'s whole shard into `dest`.
  Get issue(int owner, int at_step, std::vector<char>& dest);

  sim::Comm& comm_;
  int horizon_;
  int pulls_;
  sim::Window window_;
  std::vector<char> replica_;
  std::optional<sim::Window> replica_window_;

  std::vector<char> comp_;   ///< D_comp
  std::vector<char> recv_;   ///< D_recv
  std::vector<char> range_;  ///< fetch_range() scratch
  int comp_owner_ = -1;      ///< shard resident in D_comp (-1: none)
  Get pending_;              ///< the prefetch into D_recv, if any
  int pending_owner_ = -1;
};

}  // namespace msp::detail
