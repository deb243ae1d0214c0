#include "simmpi/runtime.hpp"

#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "simmpi/shared.hpp"
#include "util/error.hpp"

namespace msp::sim {

Runtime::Runtime(int p, NetworkModel network, ComputeModel compute,
                 FaultModel faults)
    : p_(p), network_(network), compute_(compute), faults_(std::move(faults)) {
  MSP_CHECK_MSG(p >= 1, "runtime needs at least one rank");
  MSP_CHECK_MSG(p <= 4096, "runtime caps at 4096 ranks");
  for (const auto& [rank, spec] : faults_.stragglers) {
    MSP_CHECK_MSG(rank >= 0 && rank < p,
                  "fault schedule: straggler rank " << rank << " outside p="
                                                    << p);
    MSP_CHECK_MSG(spec.compute_multiplier > 0.0 &&
                      spec.network_multiplier > 0.0,
                  "fault schedule: straggler multipliers must be positive");
  }
  for (const auto& [rank, attempts] : faults_.transfer_failures) {
    MSP_CHECK_MSG(rank >= 0 && rank < p,
                  "fault schedule: transfer-failure rank " << rank
                                                           << " outside p="
                                                           << p);
    MSP_CHECK_MSG(!attempts.empty(),
                  "fault schedule: empty failure set for rank " << rank);
  }
  for (const auto& [rank, step] : faults_.crashes) {
    MSP_CHECK_MSG(rank >= 0 && rank < p,
                  "fault schedule: crash rank " << rank << " outside p=" << p);
    MSP_CHECK_MSG(step >= 0, "fault schedule: crash step must be >= 0");
  }
  MSP_CHECK_MSG(faults_.retry_timeout_s >= 0.0 &&
                    faults_.backoff_base_s >= 0.0 &&
                    faults_.crash_detection_timeout_s >= 0.0,
                "fault schedule: timeouts must be non-negative");
}

RunReport Runtime::run(const std::function<void(Comm&)>& body) const {
  detail::Shared shared(p_, network_, compute_, faults_, tracing_);
  if (checking_)
    shared.checker = std::make_unique<check::Checker>(p_, check_sink_);

  for (detail::RankState& state : shared.rank_states)
    state.memory_budget = memory_budget_;

  // Straggler compute slowdowns apply to the whole rank lifetime.
  if (!faults_.stragglers.empty()) {
    for (const auto& [rank, spec] : faults_.stragglers)
      shared.rank_states[static_cast<std::size_t>(rank)].clock
          .set_compute_scale(spec.compute_multiplier);
  }

  std::vector<std::unique_ptr<Comm>> comms;
  comms.reserve(static_cast<std::size_t>(p_));
  for (int r = 0; r < p_; ++r)
    comms.push_back(std::unique_ptr<Comm>(new Comm(shared, shared.world, r)));

  std::mutex error_mutex;
  std::exception_ptr first_error;

  auto rank_main = [&](int r) {
    try {
      body(*comms[static_cast<std::size_t>(r)]);
    } catch (const Aborted&) {
      // Another rank failed first; our own state is moot.
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      shared.abort_all();
    }
  };

  if (p_ == 1) {
    // Single rank: run inline (simpler stacks in debuggers and tests).
    rank_main(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(p_));
    for (int r = 0; r < p_; ++r) threads.emplace_back(rank_main, r);
    for (auto& thread : threads) thread.join();
  }

  if (first_error) std::rethrow_exception(first_error);

  RunReport report;
  report.p = p_;
  report.ranks.reserve(static_cast<std::size_t>(p_));
  for (const auto& comm : comms) report.ranks.push_back(comm->stats());
  return report;
}

}  // namespace msp::sim
