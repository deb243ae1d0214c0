#include "sched/job.hpp"

namespace msp::sched {

const char* job_kind_name(JobKind kind) {
  switch (kind) {
    case JobKind::kBatch: return "batch";
    case JobKind::kServe: return "serve";
  }
  return "?";
}

const char* priority_name(Priority priority) {
  switch (priority) {
    case Priority::kLow: return "low";
    case Priority::kNormal: return "normal";
    case Priority::kHigh: return "high";
  }
  return "?";
}

}  // namespace msp::sched
