#include "cluster/trace.hpp"

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace hyades::cluster {

namespace {

// Serialize a double so that it round-trips exactly through text
// (shortest form up to max_digits10 significant digits).
std::string full_precision(double v) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

// Minimal JSON string escaping for op names (quotes, backslashes,
// control characters); the library's names are plain identifiers but the
// exporter must not emit malformed JSON for any input.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

const char* span_cat_name(SpanCat cat) {
  switch (cat) {
    case SpanCat::kPhase: return "phase";
    case SpanCat::kExchange: return "exchange";
    case SpanCat::kGsum: return "gsum";
    case SpanCat::kBarrier: return "barrier";
    case SpanCat::kSolver: return "solver";
    case SpanCat::kFault: return "fault";
    case SpanCat::kNodeDown: return "node_down";
    case SpanCat::kOther: return "other";
  }
  return "other";
}

Microseconds Tracer::total(const std::string& op) const {
  Microseconds sum = 0;
  for (const TraceEvent& e : events_) {
    if (e.op == op) sum += e.duration();
  }
  return sum;
}

Microseconds Tracer::total_cat(SpanCat cat) const {
  Microseconds sum = 0;
  for (const TraceEvent& e : events_) {
    if (e.cat == cat) sum += e.duration();
  }
  return sum;
}

SpanCounters Tracer::counters(const std::string& op) const {
  SpanCounters c;
  for (const TraceEvent& e : events_) {
    if (e.op != op) continue;
    c.bytes += e.ctr.bytes;
    c.flops += e.ctr.flops;
    c.cg_iterations += e.ctr.cg_iterations;
    c.overlap_us += e.ctr.overlap_us;
  }
  return c;
}

void write_trace_csv(const std::string& path,
                     const std::vector<const Tracer*>& per_rank) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("write_trace_csv: cannot open " + path);
  // Full round-trip precision: a 183-minute run sits at ~1.1e10 us, far
  // beyond the 6 significant digits of the default ostream precision.
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "rank,op,begin_us,end_us\n";
  for (std::size_t r = 0; r < per_rank.size(); ++r) {
    if (per_rank[r] == nullptr) continue;
    for (const TraceEvent& e : per_rank[r]->events()) {
      os << r << ',' << e.op << ',' << e.begin_us << ',' << e.end_us << '\n';
    }
  }
}

void write_trace_json(const std::string& path,
                      const std::vector<const Tracer*>& per_rank,
                      int procs_per_smp) {
  if (procs_per_smp < 1) {
    throw std::invalid_argument("write_trace_json: procs_per_smp < 1");
  }
  std::ofstream os(path);
  if (!os) throw std::runtime_error("write_trace_json: cannot open " + path);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&]() -> std::ostream& {
    if (!first) os << ",\n";
    first = false;
    return os;
  };
  // Metadata: name each SMP (process) and rank (thread) for the UI.
  for (std::size_t r = 0; r < per_rank.size(); ++r) {
    if (per_rank[r] == nullptr) continue;
    const int pid = static_cast<int>(r) / procs_per_smp;
    sep() << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
          << ",\"tid\":0,\"args\":{\"name\":\"smp" << pid << "\"}}";
    sep() << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
          << ",\"tid\":" << r << ",\"args\":{\"name\":\"rank" << r << "\"}}";
  }
  for (std::size_t r = 0; r < per_rank.size(); ++r) {
    if (per_rank[r] == nullptr) continue;
    const int pid = static_cast<int>(r) / procs_per_smp;
    for (const TraceEvent& e : per_rank[r]->events()) {
      sep() << "{\"name\":\"" << json_escape(e.op) << "\",\"cat\":\""
            << span_cat_name(e.cat) << "\",\"ph\":\"X\",\"ts\":"
            << full_precision(e.begin_us)
            << ",\"dur\":" << full_precision(e.duration()) << ",\"pid\":"
            << pid << ",\"tid\":" << r;
      if (e.ctr.any()) {
        os << ",\"args\":{\"bytes\":" << e.ctr.bytes << ",\"flops\":"
           << full_precision(e.ctr.flops)
           << ",\"cg_iterations\":" << e.ctr.cg_iterations
           << ",\"overlap_us\":" << full_precision(e.ctr.overlap_us) << "}";
      }
      os << "}";
    }
  }
  os << "\n]}\n";
}

}  // namespace hyades::cluster
