// A small named-counter registry: additive counters (virtual-time
// buckets, step counts, event counts) keyed by name.  The ensemble farm
// rolls every executed job's costs into one (Farm::campaign_metrics).
// Counters keep insertion order so tables print in the order the
// producer declared them.
#pragma once

#include <string>
#include <vector>

namespace hyades::metrics {

class Registry {
 public:
  // Add `v` to the named counter (created at 0 on first touch).
  void inc(const std::string& name, double v = 1.0);
  // Overwrite the named counter.
  void set(const std::string& name, double v);
  // Current value; 0.0 for a counter never touched.
  [[nodiscard]] double get(const std::string& name) const;
  [[nodiscard]] bool has(const std::string& name) const;

  struct Entry {
    std::string name;
    double value = 0;
  };
  // Insertion-ordered view of all counters.
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  void clear() { entries_.clear(); }

 private:
  Entry* find(const std::string& name);
  [[nodiscard]] const Entry* find(const std::string& name) const;
  std::vector<Entry> entries_;  // small-N: linear scan beats a map here
};

}  // namespace hyades::metrics
