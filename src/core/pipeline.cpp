#include "core/pipeline.hpp"

#include "core/search_engine.hpp"
#include "io/fasta.hpp"
#include "util/error.hpp"

namespace msp {

Algorithm algorithm_from_name(const std::string& name) {
  if (name == "serial") return Algorithm::kSerial;
  if (name == "a" || name == "A" || name == "algorithm-a")
    return Algorithm::kAlgorithmA;
  if (name == "b" || name == "B" || name == "algorithm-b")
    return Algorithm::kAlgorithmB;
  if (name == "hybrid") return Algorithm::kHybrid;
  if (name == "master-worker" || name == "mw") return Algorithm::kMasterWorker;
  if (name == "query" || name == "query-transport")
    return Algorithm::kQueryTransport;
  throw InvalidArgument("unknown algorithm: '" + name +
                        "' (serial|a|b|hybrid|master-worker|query)");
}

const char* algorithm_name(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kSerial: return "serial";
    case Algorithm::kAlgorithmA: return "algorithm-a";
    case Algorithm::kAlgorithmB: return "algorithm-b";
    case Algorithm::kHybrid: return "hybrid";
    case Algorithm::kMasterWorker: return "master-worker";
    case Algorithm::kQueryTransport: return "query-transport";
  }
  return "?";
}

PipelineResult run_pipeline(const std::string& fasta_image,
                            const std::vector<Spectrum>& queries,
                            const PipelineOptions& options) {
  MSP_CHECK_MSG(options.p >= 1, "need p >= 1");
  PipelineResult result;

  if (options.algorithm == Algorithm::kSerial) {
    const SearchEngine engine(options.config);
    const ProteinDatabase db = read_fasta_string(fasta_image);
    result.hits = engine.search(db, queries);
    result.report.p = 1;
    return result;
  }

  const sim::Runtime runtime(options.p, options.network, options.compute,
                             options.faults);
  // Every driver's result is (or derives from) a ParallelRunResult; the
  // pipeline keeps only the common part.
  ParallelRunResult run;
  switch (options.algorithm) {
    case Algorithm::kAlgorithmA:
      run = run_algorithm_a(runtime, fasta_image, queries, options.config,
                            options.a);
      break;
    case Algorithm::kAlgorithmB:
      run = run_algorithm_b(runtime, fasta_image, queries, options.config);
      break;
    case Algorithm::kHybrid:
      run = run_algorithm_hybrid(runtime, fasta_image, queries, options.config,
                                 options.hybrid);
      break;
    case Algorithm::kMasterWorker:
      run = run_master_worker(runtime, fasta_image, queries, options.config,
                              options.master_worker);
      break;
    case Algorithm::kQueryTransport:
      run = run_query_transport(runtime, fasta_image, queries, options.config);
      break;
    case Algorithm::kSerial:
      break;  // handled above
  }
  result.hits = std::move(run.hits);
  result.report = std::move(run.report);
  result.candidates = run.candidates;
  result.run_seconds = result.report.total_time();
  return result;
}

std::vector<HitRecord> to_hit_records(const std::vector<Spectrum>& queries,
                                      const QueryHits& hits) {
  MSP_CHECK_MSG(queries.size() == hits.size(),
                "queries/hits arity mismatch");
  std::vector<HitRecord> records;
  for (std::size_t q = 0; q < hits.size(); ++q) {
    std::uint32_t rank = 0;
    for (const Hit& hit : hits[q]) {
      HitRecord record;
      record.query_title = queries[q].title().empty()
                               ? "query_" + std::to_string(q)
                               : queries[q].title();
      record.rank = ++rank;
      record.protein_id = hit.protein_id;
      record.peptide = hit.peptide;
      record.fragment_end = hit.end == FragmentEnd::kPrefix ? 'P'
                            : hit.end == FragmentEnd::kSuffix ? 'S'
                                                              : 'I';
      record.candidate_mass = hit.mass;
      record.score = hit.score;
      records.push_back(std::move(record));
    }
  }
  return records;
}

}  // namespace msp
