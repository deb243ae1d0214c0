// simmpi primitive microbench in the IMB style: host cost of the simulated
// MPI primitives at p = kRanks, measured through the public Comm and
// Window API. Each figure is the median over repeated runs of the mean
// cost per operation inside one run (rank 0's wall clock, after warm-up
// iterations inside the same run).
#include <vector>

#include "perfbench.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/runtime.hpp"

namespace pb {
namespace {

constexpr int kWarmup = 50;
constexpr int kIterations = 1000;

/// Median over runs of rank 0's nanoseconds per iteration of `op`.
template <typename Op>
double per_op_ns(const msp::sim::Runtime& runtime, double budget_s, Op op) {
  std::vector<double> samples;
  const double deadline = wall_now() + budget_s;
  while (samples.size() < 3 || wall_now() < deadline) {
    double ns = 0.0;
    runtime.run([&](msp::sim::Comm& comm) {
      for (int i = 0; i < kWarmup; ++i) op(comm);
      comm.barrier();
      const double start = wall_now();
      for (int i = 0; i < kIterations; ++i) op(comm);
      const double elapsed = wall_now() - start;
      if (comm.rank() == 0) ns = elapsed * 1e9 / kIterations;
    });
    samples.push_back(ns);
  }
  return median(samples);
}

}  // namespace

SimmpiMicro simmpi_micro(double budget_s) {
  const msp::sim::Runtime runtime(kRanks);
  const double share = budget_s / 4.0;
  SimmpiMicro micro;

  {
    std::vector<double> samples;
    const double deadline = wall_now() + share;
    runtime.run([](msp::sim::Comm&) {});  // warm-up
    while (samples.size() < 20 || wall_now() < deadline) {
      const double start = wall_now();
      runtime.run([](msp::sim::Comm&) {});
      samples.push_back(wall_now() - start);
    }
    micro.run_spawn_s = median(samples);
  }

  micro.barrier_ns =
      per_op_ns(runtime, share, [](msp::sim::Comm& comm) { comm.barrier(); });

  // Ping-pong between rank pairs (0,1) and (2,3): one iteration is two
  // send/recv pairs, so the per-pair cost is half of it.
  micro.send_recv_ns =
      0.5 * per_op_ns(runtime, share, [](msp::sim::Comm& comm) {
        const int peer = comm.rank() ^ 1;
        if (comm.rank() % 2 == 0) {
          comm.send(peer, 7, std::vector<char>(64, 'x'));
          comm.recv(peer, 7);
        } else {
          const msp::sim::Comm::Message message = comm.recv(peer, 7);
          comm.send(peer, 7, message.payload);
        }
      });

  // One-sided get of the ring successor's 4 KiB shard, then the fence that
  // closes the epoch: Algorithm A's per-step transport pattern.
  {
    std::vector<double> samples;
    const double deadline = wall_now() + share;
    while (samples.size() < 3 || wall_now() < deadline) {
      double ns = 0.0;
      runtime.run([&](msp::sim::Comm& comm) {
        const std::vector<char> local(4096, static_cast<char>(comm.rank()));
        msp::sim::Window window(comm, local);
        std::vector<char> dest;
        const int target = (comm.rank() + 1) % comm.size();
        auto step = [&] {
          msp::sim::RmaRequest request = window.rget(target, dest, 1);
          window.wait(request);
          window.fence();
        };
        for (int i = 0; i < kWarmup; ++i) step();
        const double start = wall_now();
        for (int i = 0; i < kIterations; ++i) step();
        const double elapsed = wall_now() - start;
        if (comm.rank() == 0) ns = elapsed * 1e9 / kIterations;
      });
      samples.push_back(ns);
    }
    micro.rget_fence_ns = median(samples);
  }
  return micro;
}

}  // namespace pb
