#include "simmpi/trace.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "util/json.hpp"

namespace msp::sim {
namespace {

/// Fixed-format virtual-time rendering for the trace exports. Virtual times
/// are deterministic doubles, so a fixed precision makes the rendered bytes
/// deterministic too; 9 decimal digits of a second = nanosecond resolution,
/// far below the model's smallest cost (shm latency, 1 µs).
std::string fixed9(double value) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(9) << value;
  return os.str();
}

/// Microseconds with ns resolution — Chrome trace `ts`/`dur` are in µs.
std::string micros(double seconds) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3) << seconds * 1e6;
  return os.str();
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xF];
          out += hex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

const char* lane_name(int lane) {
  switch (lane) {
    case 0: return "clock";
    case 1: return "transfers";
    case 2: return "faults";
    case 3: return "serve";
    case 4: return "sched";
  }
  return "?";
}

}  // namespace

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kCompute: return "compute";
    case SpanKind::kIo: return "io";
    case SpanKind::kRgetWait: return "rget-wait";
    case SpanKind::kBarrier: return "barrier";
    case SpanKind::kRecoveryWait: return "recovery-wait";
    case SpanKind::kMarker: return "marker";
    case SpanKind::kServeIdle: return "serve-idle";
    case SpanKind::kRgetIssue: return "rget-issue";
    case SpanKind::kFaultRetry: return "fault-retry";
    case SpanKind::kFaultCrash: return "fault-crash";
    case SpanKind::kFaultRecovery: return "fault-recovery";
    case SpanKind::kServeAdmit: return "serve-admit";
    case SpanKind::kServeShed: return "serve-shed";
    case SpanKind::kServeDispatch: return "serve-dispatch";
    case SpanKind::kServePublish: return "serve-publish";
    case SpanKind::kServeRouteSkip: return "serve-route-skip";
    case SpanKind::kSchedSubmit: return "sched-submit";
    case SpanKind::kSchedStart: return "sched-start";
    case SpanKind::kSchedBackfill: return "sched-backfill";
    case SpanKind::kSchedPreempt: return "sched-preempt";
    case SpanKind::kSchedComplete: return "sched-complete";
  }
  return "?";
}

int span_lane(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRgetIssue:
      return 1;
    case SpanKind::kFaultRetry:
    case SpanKind::kFaultCrash:
    case SpanKind::kFaultRecovery:
      return 2;
    case SpanKind::kServeAdmit:
    case SpanKind::kServeShed:
    case SpanKind::kServeDispatch:
    case SpanKind::kServePublish:
    case SpanKind::kServeRouteSkip:
      return 3;
    case SpanKind::kSchedSubmit:
    case SpanKind::kSchedStart:
    case SpanKind::kSchedBackfill:
    case SpanKind::kSchedPreempt:
    case SpanKind::kSchedComplete:
      return 4;
    default:
      return 0;
  }
}

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) return field;
  std::string out;
  out.reserve(field.size() + 2);
  out += '"';
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

double RankStats::masking_efficiency() const {
  if (rget_issued_seconds <= 0.0) return 0.0;
  return rget_overlapped_seconds / rget_issued_seconds;
}

double RunReport::total_time() const {
  double latest = 0.0;
  for (const RankStats& r : ranks) latest = std::max(latest, r.total_time);
  return latest;
}

double RunReport::max_compute() const {
  double peak = 0.0;
  for (const RankStats& r : ranks) peak = std::max(peak, r.compute_seconds);
  return peak;
}

double RunReport::sum_compute() const {
  double total = 0.0;
  for (const RankStats& r : ranks) total += r.compute_seconds;
  return total;
}

double RunReport::mean_residual_over_compute() const {
  // Aggregate ratio: every rank's waits count, whether or not it computed
  // (see the header for the semantics; the old per-rank mean silently
  // dropped zero-compute ranks, e.g. crashed ones).
  double waits = 0.0;
  double compute = 0.0;
  for (const RankStats& r : ranks) {
    waits += r.residual_comm_seconds + r.sync_wait_seconds;
    compute += r.compute_seconds;
  }
  return compute <= 0.0 ? 0.0 : waits / compute;
}

double RunReport::masking_efficiency() const {
  double issued = 0.0;
  double overlapped = 0.0;
  for (const RankStats& r : ranks) {
    issued += r.rget_issued_seconds;
    overlapped += r.rget_overlapped_seconds;
  }
  return issued <= 0.0 ? 0.0 : overlapped / issued;
}

double RunReport::masking_saving_estimate() const {
  double unmasked_estimate = 0.0;
  for (const RankStats& r : ranks)
    unmasked_estimate = std::max(unmasked_estimate,
                                 r.total_time + r.rget_overlapped_seconds);
  if (unmasked_estimate <= 0.0) return 0.0;
  return (unmasked_estimate - total_time()) / unmasked_estimate;
}

std::uint64_t RunReport::sum_counter(const std::string& name) const {
  std::uint64_t total = 0;
  for (const RankStats& r : ranks) {
    auto it = r.counters.find(name);
    if (it != r.counters.end()) total += it->second;
  }
  return total;
}

std::size_t RunReport::max_peak_memory() const {
  std::size_t peak = 0;
  for (const RankStats& r : ranks) peak = std::max(peak, r.peak_memory_bytes);
  return peak;
}

double RunReport::serve_idle_seconds() const {
  double total = 0.0;
  for (const RankStats& r : ranks) total += r.idle_seconds;
  return total;
}

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kRetry: return "retry";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kRecovery: return "recovery";
  }
  return "?";
}

std::uint64_t RunReport::total_transfer_retries() const {
  std::uint64_t total = 0;
  for (const RankStats& r : ranks) total += r.transfer_retries;
  return total;
}

double RunReport::total_recovery_seconds() const {
  double total = 0.0;
  for (const RankStats& r : ranks) total += r.recovery_seconds;
  return total;
}

std::vector<int> RunReport::crashed_ranks() const {
  std::vector<int> dead;
  for (const RankStats& r : ranks)
    if (r.crashed) dead.push_back(r.rank);
  return dead;
}

bool RunReport::has_fault_activity() const {
  for (const RankStats& r : ranks) {
    if (r.crashed || r.transfer_retries != 0 || r.recovery_seconds != 0.0 ||
        !r.fault_events.empty())
      return true;
  }
  return false;
}

std::string RunReport::to_csv(CsvFaultColumns fault_columns) const {
  // Collect the union of counter names so every row has the same columns.
  std::vector<std::string> names;
  for (const RankStats& r : ranks)
    for (const auto& [name, value] : r.counters)
      if (std::find(names.begin(), names.end(), name) == names.end())
        names.push_back(name);
  std::sort(names.begin(), names.end());

  // kAuto: fault columns appear only when something actually happened, so a
  // failure-free run renders byte-identically to a run of the pre-fault
  // layer (the zero-cost-when-disabled contract). Comparisons mixing faulty
  // and clean runs must pass kInclude for both files so the schemas align.
  const bool faults = fault_columns == CsvFaultColumns::kInclude ||
                      (fault_columns == CsvFaultColumns::kAuto &&
                       has_fault_activity());

  std::ostringstream os;
  os << "rank,total_s,compute_s,io_s,comm_issued_s,residual_s,sync_s,idle_s,"
        "rget_issued_s,rget_overlap_s,bytes_sent,bytes_received,peak_memory";
  if (faults) os << ",retries,recovery_s,crashed";
  for (const auto& name : names) os << ',' << csv_escape(name);
  os << '\n';
  os << std::fixed << std::setprecision(6);
  for (const RankStats& r : ranks) {
    os << r.rank << ',' << r.total_time << ',' << r.compute_seconds << ','
       << r.io_seconds << ',' << r.comm_issued_seconds << ','
       << r.residual_comm_seconds << ',' << r.sync_wait_seconds << ','
       << r.idle_seconds << ','
       << r.rget_issued_seconds << ',' << r.rget_overlapped_seconds << ','
       << r.bytes_sent << ',' << r.bytes_received << ',' << r.peak_memory_bytes;
    if (faults)
      os << ',' << r.transfer_retries << ',' << r.recovery_seconds << ','
         << (r.crashed ? 1 : 0);
    for (const auto& name : names) {
      const auto it = r.counters.find(name);
      os << ',' << (it == r.counters.end() ? 0 : it->second);
    }
    os << '\n';
  }
  return os.str();
}

std::string RunReport::to_json() const {
  JsonWriter json;
  json.begin_object();
  json.field("p", p);
  json.field("total_time_s", total_time());
  json.field("max_compute_s", max_compute());
  json.field("sum_compute_s", sum_compute());
  json.field("mean_residual_over_compute", mean_residual_over_compute());
  json.field("masking_efficiency", masking_efficiency());
  json.field("masking_saving_estimate", masking_saving_estimate());
  json.field("serve_idle_s", serve_idle_seconds());
  json.field("max_peak_memory_bytes", max_peak_memory());

  // Counter sums, name-sorted (the union the CSV columns carry).
  std::map<std::string, std::uint64_t> sums;
  for (const RankStats& r : ranks)
    for (const auto& [name, value] : r.counters) sums[name] += value;
  json.key("counters").begin_object();
  for (const auto& [name, value] : sums) json.field(name, value);
  json.end_object();

  if (has_fault_activity()) {
    json.key("faults").begin_object();
    json.field("transfer_retries", total_transfer_retries());
    json.field("recovery_s", total_recovery_seconds());
    json.key("crashed_ranks").begin_array();
    for (const int r : crashed_ranks()) json.value(r);
    json.end_array();
    json.end_object();
  }

  json.key("ranks").begin_array();
  for (const RankStats& r : ranks) {
    json.begin_object();
    json.field("rank", r.rank);
    json.field("total_s", r.total_time);
    json.field("compute_s", r.compute_seconds);
    json.field("io_s", r.io_seconds);
    json.field("comm_issued_s", r.comm_issued_seconds);
    json.field("residual_s", r.residual_comm_seconds);
    json.field("sync_s", r.sync_wait_seconds);
    if (r.idle_seconds != 0.0) json.field("idle_s", r.idle_seconds);
    json.field("rget_issued_s", r.rget_issued_seconds);
    json.field("rget_overlap_s", r.rget_overlapped_seconds);
    json.field("bytes_sent", r.bytes_sent);
    json.field("bytes_received", r.bytes_received);
    json.field("peak_memory", r.peak_memory_bytes);
    if (has_fault_activity()) {
      json.field("retries", r.transfer_retries);
      json.field("recovery_s", r.recovery_seconds);
      json.field("crashed", r.crashed);
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

std::string RunReport::to_chrome_trace() const {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& event) {
    if (!first) os << ',';
    first = false;
    os << '\n' << event;
  };

  for (const RankStats& r : ranks) {
    // Process/thread metadata: one pid per rank, one tid per populated lane.
    bool lane_used[5] = {false, false, false, false, false};
    for (const Span& span : r.spans) lane_used[span_lane(span.kind)] = true;
    lane_used[0] = true;  // the clock lane always exists
    {
      std::ostringstream meta;
      meta << "{\"ph\":\"M\",\"pid\":" << r.rank
           << ",\"name\":\"process_name\",\"args\":{\"name\":\"rank "
           << r.rank << "\"}}";
      emit(meta.str());
    }
    for (int lane = 0; lane < 5; ++lane) {
      if (!lane_used[lane]) continue;
      std::ostringstream meta;
      meta << "{\"ph\":\"M\",\"pid\":" << r.rank << ",\"tid\":" << lane
           << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
           << lane_name(lane) << "\"}}";
      emit(meta.str());
    }

    for (std::size_t i = 0; i < r.spans.size(); ++i) {
      const Span& span = r.spans[i];
      const int lane = span_lane(span.kind);
      const std::string name =
          span.name.empty() ? span_kind_name(span.kind) : span.name;
      // args.i is the span's index on the rank's timeline — the stable id
      // that simcheck violation reports cite as `trace#N`, so a report
      // links directly to the event in the viewer.
      // Serve- and sched-lane control events are instants too (begin ==
      // end), so they render like markers rather than zero-duration slices.
      std::ostringstream event;
      if (span.kind == SpanKind::kMarker || lane == 3 || lane == 4) {
        event << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":" << r.rank
              << ",\"tid\":" << lane << ",\"ts\":" << micros(span.begin)
              << ",\"cat\":\"" << span_kind_name(span.kind) << "\",\"name\":\""
              << json_escape(name) << "\",\"args\":{\"i\":" << i << "}}";
      } else {
        event << "{\"ph\":\"X\",\"pid\":" << r.rank << ",\"tid\":" << lane
              << ",\"ts\":" << micros(span.begin) << ",\"dur\":"
              << micros(span.end - span.begin) << ",\"cat\":\""
              << span_kind_name(span.kind) << "\",\"name\":\""
              << json_escape(name) << "\",\"args\":{\"i\":" << i << "}}";
      }
      emit(event.str());
    }
  }
  os << "\n]}\n";
  return os.str();
}

std::string RunReport::to_iteration_csv() const {
  std::ostringstream os;
  os << "rank,segment,label,begin_s,end_s,compute_s,io_s,rget_wait_s,"
        "sync_wait_s,recovery_s,rget_issued_s\n";
  for (const RankStats& r : ranks) {
    // Segment boundaries: the rank's markers, in record order. A leading
    // "(init)" segment covers anything before the first marker; with no
    // markers at all the whole run is one "(run)" segment.
    struct Segment {
      std::string label;
      double begin = 0.0;
      double end = 0.0;
      double buckets[5] = {0, 0, 0, 0, 0};  // compute, io, rget, sync, recovery
      double issued = 0.0;
    };
    std::vector<Segment> segments;
    for (const Span& span : r.spans) {
      if (span.kind != SpanKind::kMarker) continue;
      if (segments.empty() && span.begin > 0.0)
        segments.push_back({"(init)", 0.0, span.begin, {}, 0.0});
      else if (!segments.empty())
        segments.back().end = span.begin;
      segments.push_back({span.name.empty() ? "marker" : span.name, span.begin,
                          r.total_time, {}, 0.0});
    }
    if (segments.empty())
      segments.push_back({"(run)", 0.0, r.total_time, {}, 0.0});

    // Attribute spans to segments by begin time (clock spans never straddle
    // a marker: markers are recorded between charges).
    auto segment_of = [&](double t) -> Segment& {
      std::size_t k = segments.size() - 1;
      while (k > 0 && segments[k].begin > t) --k;
      return segments[k];
    };
    for (const Span& span : r.spans) {
      Segment& segment = segment_of(span.begin);
      const double duration = span.end - span.begin;
      switch (span.kind) {
        case SpanKind::kCompute: segment.buckets[0] += duration; break;
        case SpanKind::kIo: segment.buckets[1] += duration; break;
        case SpanKind::kRgetWait: segment.buckets[2] += duration; break;
        case SpanKind::kBarrier: segment.buckets[3] += duration; break;
        case SpanKind::kRecoveryWait: segment.buckets[4] += duration; break;
        case SpanKind::kRgetIssue: segment.issued += duration; break;
        default: break;  // markers delimit; fault spans mirror kRecoveryWait
      }
    }

    for (std::size_t k = 0; k < segments.size(); ++k) {
      const Segment& segment = segments[k];
      os << r.rank << ',' << k << ',' << csv_escape(segment.label) << ','
         << fixed9(segment.begin) << ',' << fixed9(segment.end);
      for (const double bucket : segment.buckets) os << ',' << fixed9(bucket);
      os << ',' << fixed9(segment.issued) << '\n';
    }
  }
  return os.str();
}

std::string RunReport::to_string() const {
  const bool faults = has_fault_activity();
  std::ostringstream os;
  os << std::fixed << std::setprecision(3);
  os << "p=" << p << " total=" << total_time() << "s\n";
  for (const RankStats& r : ranks) {
    os << "  rank " << r.rank << ": t=" << r.total_time
       << " compute=" << r.compute_seconds << " io=" << r.io_seconds
       << " residual=" << r.residual_comm_seconds
       << " sync=" << r.sync_wait_seconds
       << " peak_mem=" << r.peak_memory_bytes;
    if (faults) {
      os << " retries=" << r.transfer_retries
         << " recovery=" << r.recovery_seconds;
      if (r.crashed) os << " CRASHED";
    }
    os << '\n';
    for (const FaultEvent& event : r.fault_events) {
      os << std::setprecision(6) << "    fault[" << fault_kind_name(event.kind)
         << "] t=" << event.time << " +" << event.seconds << "s "
         << event.detail << '\n'
         << std::setprecision(3);
    }
  }
  return os.str();
}

}  // namespace msp::sim
