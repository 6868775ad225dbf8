// Host-time measurement for the benchmark: the real clock, the kernel's
// resource counters, order statistics and an in-memory span log.
//
// Everything the benchmark reads from the real clock goes through
// host_now_s(); nothing measured here ever feeds a virtual timestamp.
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// Seconds on the monotonic host clock (arbitrary epoch).
double host_now_s();

// A getrusage() reading.  Subtracting two readings gives the usage in
// between; maxrss_kb is the later reading's high-water mark.
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  long vcsw = 0;   // voluntary context switches
  long ivcsw = 0;  // involuntary context switches
  long maxrss_kb = 0;
  [[nodiscard]] double cpu_s() const { return user_s + sys_s; }
};
Usage usage_self();    // the whole process
Usage usage_thread();  // the calling thread only
Usage operator-(const Usage& later, const Usage& earlier);

// Median plus the highest percentile with at least ten samples beyond it
// (the median itself when there are too few samples), with the count.
struct Dist {
  double p50 = 0;
  double tail = 0;
  double tail_pct = 50;
  std::size_t n = 0;
};
Dist summarize(std::vector<double> v);
double median(std::vector<double> v);
// The q-quantile (0 <= q <= 1), interpolating between order statistics.
double quantile(std::vector<double> v, double q);

// One timed interval.  `parent` is the id of the enclosing span (-1 for
// a root); spans of one episode share `run`; `rank` is -1 for spans on
// the main thread.
struct Span {
  int id = -1;
  int parent = -1;
  int run = 0;
  int rank = -1;
  std::string name;
  double t0 = 0;
  double t1 = 0;
};

// Spans stay in memory (thread-safe: rank threads record concurrently)
// and are written out once, when the run ends.
class SpanLog {
 public:
  int open(const std::string& name, int parent, int run, int rank);
  void close(int id);

  // Self time per span name: each span's duration minus the union of
  // its children's intervals, summed over spans of that name.
  [[nodiscard]] std::map<std::string, double> self_time_s() const;
  // Total duration per span name.
  [[nodiscard]] std::map<std::string, double> total_s() const;

  // JSON: {"spans": [...], "self_s": {...}} plus the caller's summary.
  void write(const std::string& path, const std::string& summary_json) const;

 private:
  [[nodiscard]] std::vector<Span> spans() const;  // a consistent copy

  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span; a null log makes it a no-op (untraced runs pay nothing).
class SpanScope {
 public:
  SpanScope(SpanLog* log, const std::string& name, int parent, int run,
            int rank)
      : log_(log), id_(log ? log->open(name, parent, run, rank) : -1) {}
  ~SpanScope() {
    if (log_) log_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace perfbench
