// Runtime: launches a simulated p-rank distributed-memory run.
//
// Each rank executes `body(Comm&)` on its own std::thread. Real data moves
// between ranks (so correctness is genuinely exercised); time is virtual
// (so a 128-rank scaling study is deterministic and runs on any host).
// An exception in any rank aborts the whole run and is rethrown here.
#pragma once

#include <functional>
#include <vector>

#include "simmpi/check.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/faults.hpp"
#include "simmpi/netmodel.hpp"
#include "simmpi/trace.hpp"

namespace msp::sim {

class Runtime {
 public:
  /// `faults` is the run's deterministic fault schedule (see faults.hpp);
  /// the default empty schedule is bit-exactly zero-cost.
  explicit Runtime(int p, NetworkModel network = {}, ComputeModel compute = {},
                   FaultModel faults = {});

  int size() const { return p_; }
  const NetworkModel& network() const { return network_; }
  const ComputeModel& compute_model() const { return compute_; }
  const FaultModel& faults() const { return faults_; }

  /// Enable span tracing for subsequent run() calls: every clock charge,
  /// wait, transfer, fault event, and driver marker is recorded on the
  /// per-rank timelines (RankStats::spans; export with
  /// RunReport::to_chrome_trace / to_iteration_csv). Off by default — the
  /// disabled path costs one null-pointer check per clock charge and
  /// changes no virtual time (DESIGN.md §5e).
  void enable_tracing(bool on = true) { tracing_ = on; }
  bool tracing_enabled() const { return tracing_; }

  /// Per-rank memory budget in bytes for subsequent run() calls (the
  /// paper's 1 GB/process cap, a property of the simulated cluster like
  /// the network and fault models); 0 disables (the default). A rank whose
  /// Comm::charge_alloc exceeds it throws OutOfMemoryBudget.
  void set_memory_budget(std::size_t bytes) { memory_budget_ = bytes; }

  /// Enable the happens-before checker (simcheck, see check.hpp) for
  /// subsequent run() calls. The build default follows the MSPAR_CHECK
  /// CMake option (ON in Debug unless overridden); this call overrides it
  /// per runtime. When off, no shadow state is allocated and every hook is
  /// one null-pointer test. When on, a clean run's hits, stats and traces
  /// are bit-identical to the unchecked run.
  void enable_checking(bool on = true) { checking_ = on; }
  bool checking_enabled() const { return checking_; }

  /// Install a violation sink for subsequent run() calls: violations are
  /// appended to `sink` and the run continues, instead of the first one
  /// throwing check::CheckFailed in the offending rank. Pass nullptr to
  /// restore throw-on-detection. The sink must outlive the run() call;
  /// installing one implies enable_checking().
  void set_check_sink(std::vector<check::Violation>* sink) {
    check_sink_ = sink;
    if (sink != nullptr) checking_ = true;
  }

  /// Run one simulated program. May be called repeatedly; every call is an
  /// independent "job" with fresh clocks and mailboxes.
  RunReport run(const std::function<void(Comm&)>& body) const;

 private:
  int p_;
  NetworkModel network_;
  ComputeModel compute_;
  FaultModel faults_;
  bool tracing_ = false;
  std::size_t memory_budget_ = 0;
#ifdef MSPAR_CHECK_DEFAULT
  bool checking_ = true;
#else
  bool checking_ = false;
#endif
  std::vector<check::Violation>* check_sink_ = nullptr;
};

}  // namespace msp::sim
