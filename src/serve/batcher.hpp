// Size-or-deadline adaptive batching for the online query service.
//
// Admitted queries accumulate in one open batch; the batch closes the
// moment it reaches max_batch queries (size close — under load) or when its
// *oldest* member has waited max_wait_s (deadline close — under trickle
// traffic), whichever comes first. Closed batches queue for dispatch at the
// next service boundary. The state machine is driven by the replicated
// per-rank controllers with identical inputs, so it is deliberately pure
// bookkeeping: no clocks, no communication.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace msp::serve {

/// How closed batches enter the serving ring.
enum class DispatchMode {
  kBatchAtATime,    ///< naive: one batch owns the ring for a full rotation
  kMultiBatchRing,  ///< continuous ring scoring all in-flight batches
};

const char* dispatch_mode_name(DispatchMode mode);
/// "naive" | "multi"; throws InvalidArgument otherwise.
DispatchMode dispatch_mode_from_name(const std::string& name);

struct BatchPolicy {
  std::size_t max_batch = 16;  ///< size close threshold
  double max_wait_s = 0.05;    ///< deadline close: oldest member's max wait
};

class AdaptiveBatcher {
 public:
  explicit AdaptiveBatcher(BatchPolicy policy) : policy_(policy) {
    MSP_CHECK_MSG(policy_.max_batch >= 1, "batch size must be >= 1");
    MSP_CHECK_MSG(policy_.max_wait_s >= 0.0, "batch wait must be >= 0");
  }

  /// Add an admitted query; closes the open batch on reaching max_batch.
  void enqueue(std::size_t query_id, double now) {
    if (open_.empty()) open_time_ = now;
    open_.push_back(query_id);
    if (open_.size() >= policy_.max_batch) close_open();
  }

  /// Virtual time the open batch's deadline fires (+inf with no open
  /// batch) — the controllers' event loop interleaves this with arrivals.
  double next_deadline() const {
    if (open_.empty()) return std::numeric_limits<double>::infinity();
    return open_time_ + policy_.max_wait_s;
  }

  /// Deadline close: no-op unless the open batch's deadline has passed.
  void close_due(double now) {
    if (!open_.empty() && now >= next_deadline()) close_open();
  }

  /// Closed batches awaiting dispatch, oldest first (ownership moves).
  std::vector<std::vector<std::size_t>> take_closed() {
    return std::exchange(closed_, {});
  }

  /// Queries in the batcher (open + closed, not yet taken).
  std::size_t pending() const {
    std::size_t total = open_.size();
    for (const auto& batch : closed_) total += batch.size();
    return total;
  }

 private:
  void close_open() { closed_.push_back(std::exchange(open_, {})); }

  BatchPolicy policy_;
  std::vector<std::size_t> open_;
  double open_time_ = 0.0;
  std::vector<std::vector<std::size_t>> closed_;
};

inline const char* dispatch_mode_name(DispatchMode mode) {
  switch (mode) {
    case DispatchMode::kBatchAtATime: return "naive";
    case DispatchMode::kMultiBatchRing: return "multi";
  }
  return "?";
}

inline DispatchMode dispatch_mode_from_name(const std::string& name) {
  if (name == "naive") return DispatchMode::kBatchAtATime;
  if (name == "multi") return DispatchMode::kMultiBatchRing;
  throw InvalidArgument("unknown dispatch mode: " + name);
}

}  // namespace msp::serve
