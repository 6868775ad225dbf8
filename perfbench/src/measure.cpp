#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double host_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

Usage read_usage(int who) {
  rusage ru{};
  if (getrusage(who, &ru) != 0) throw std::runtime_error("getrusage failed");
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.vcsw = ru.ru_nvcsw;
  u.ivcsw = ru.ru_nivcsw;
  u.maxrss_kb = ru.ru_maxrss;
  return u;
}

}  // namespace

Usage usage_self() { return read_usage(RUSAGE_SELF); }
Usage usage_thread() { return read_usage(RUSAGE_THREAD); }

Usage operator-(const Usage& later, const Usage& earlier) {
  Usage d;
  d.user_s = later.user_s - earlier.user_s;
  d.sys_s = later.sys_s - earlier.sys_s;
  d.vcsw = later.vcsw - earlier.vcsw;
  d.ivcsw = later.ivcsw - earlier.ivcsw;
  d.maxrss_kb = later.maxrss_kb;
  return d;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

Dist summarize(std::vector<double> v) {
  Dist d;
  d.n = v.size();
  if (v.empty()) return d;
  d.p50 = median(v);
  d.tail = d.p50;
  // Sample k (0-based, sorted) has n-1-k samples beyond it; the highest
  // one with at least ten beyond is k = n-11.  Below 21 samples that
  // index is not above the median, so the tail is the median.
  std::sort(v.begin(), v.end());
  if (d.n >= 21) {
    const std::size_t k = d.n - 11;
    d.tail = v[k];
    d.tail_pct = 100.0 * static_cast<double>(k + 1) / static_cast<double>(d.n);
  }
  return d;
}

int SpanLog::open(const std::string& name, int parent, int run, int rank) {
  const double t = host_now_s();
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = static_cast<int>(spans_.size());
  s.parent = parent;
  s.run = run;
  s.rank = rank;
  s.name = name;
  s.t0 = t;
  s.t1 = t;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanLog::close(int id) {
  const double t = host_now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<std::size_t>(id)).t1 = t;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> SpanLog::total_s() const {
  std::map<std::string, double> out;
  for (const Span& s : spans()) out[s.name] += s.t1 - s.t0;
  return out;
}

std::map<std::string, double> SpanLog::self_time_s() const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<std::pair<double, double>>> kids(all.size());
  for (const Span& s : all) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.t0, s.t1);
    }
  }
  std::map<std::string, double> out;
  for (const Span& s : all) {
    auto& iv = kids[static_cast<std::size_t>(s.id)];
    std::sort(iv.begin(), iv.end());
    // Union of the children's intervals, clipped to the parent.
    double covered = 0;
    double lo = 0;
    double hi = -1;
    for (const auto& [a0, a1] : iv) {
      const double b0 = std::max(a0, s.t0);
      const double b1 = std::min(a1, s.t1);
      if (b1 <= b0) continue;
      if (b0 > hi) {
        if (hi > lo) covered += hi - lo;
        lo = b0;
        hi = b1;
      } else {
        hi = std::max(hi, b1);
      }
    }
    if (hi > lo) covered += hi - lo;
    out[s.name] += (s.t1 - s.t0) - covered;
  }
  return out;
}

void SpanLog::write(const std::string& path,
                    const std::string& summary_json) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write trace file " + path);
  const std::vector<Span> all = spans();
  const double base = all.empty() ? 0.0 : all.front().t0;
  f << "{\"summary\": " << summary_json << ",\n\"self_s\": {";
  bool first = true;
  for (const auto& [name, secs] : self_time_s()) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", secs);
    f << (first ? "" : ", ") << "\"" << name << "\": " << buf;
    first = false;
  }
  f << "},\n\"spans\": [\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"id\": %d, \"parent\": %d, \"run\": %d, \"rank\": %d, "
                  "\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f}",
                  s.id, s.parent, s.run, s.rank, s.name.c_str(), s.t0 - base,
                  s.t1 - base);
    f << buf << (i + 1 < all.size() ? ",\n" : "\n");
  }
  f << "]}\n";
}

}  // namespace perfbench
