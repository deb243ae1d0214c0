// End-to-end pipeline: the public "just run a search" entry point used by
// the examples and by downstream applications. Wraps database/query loading,
// algorithm selection, the simulated parallel run, and hit-report output.
#pragma once

#include <string>
#include <vector>

#include "core/algorithm_a.hpp"
#include "core/algorithm_b.hpp"
#include "core/algorithm_hybrid.hpp"
#include "core/config.hpp"
#include "core/master_worker.hpp"
#include "core/query_transport.hpp"
#include "io/results_io.hpp"
#include "simmpi/faults.hpp"
#include "simmpi/netmodel.hpp"

namespace msp {

enum class Algorithm {
  kSerial,          ///< single-rank reference
  kAlgorithmA,      ///< the paper's primary contribution
  kAlgorithmB,      ///< sorted variant
  kHybrid,          ///< sub-group extension (paper's Discussion)
  kMasterWorker,    ///< MSPolygraph baseline (O(N) memory/rank)
  kQueryTransport,  ///< rejected-design ablation
};

/// Parse an algorithm name: "serial", "a", "b", "hybrid", "master-worker",
/// "query", or any name algorithm_name prints.
Algorithm algorithm_from_name(const std::string& name);
const char* algorithm_name(Algorithm algorithm);

struct PipelineOptions {
  Algorithm algorithm = Algorithm::kAlgorithmA;
  int p = 8;
  SearchConfig config;
  AlgorithmAOptions a;
  HybridOptions hybrid;
  MasterWorkerOptions master_worker;
  sim::NetworkModel network;
  sim::ComputeModel compute;
  /// Deterministic fault schedule for the simulated run (default: none).
  /// Ignored by the serial reference path.
  sim::FaultModel faults;
};

struct PipelineResult {
  QueryHits hits;
  sim::RunReport report;
  std::uint64_t candidates = 0;
  /// Simulated parallel run-time (what the paper's tables report).
  double run_seconds = 0.0;
};

/// Run a search over in-memory inputs. `fasta_image` is the database file
/// contents (see io/fasta.hpp for chunked parallel loading semantics).
PipelineResult run_pipeline(const std::string& fasta_image,
                            const std::vector<Spectrum>& queries,
                            const PipelineOptions& options);

/// Flatten per-query hits into report records (rank-annotated, in query
/// order) ready for write_hits_file().
std::vector<HitRecord> to_hit_records(const std::vector<Spectrum>& queries,
                                      const QueryHits& hits);

}  // namespace msp
