// Result cache: completed job diagnostics keyed by (config hash, seed).
//
// The farm's dedup story: production campaigns resubmit members all the
// time (a re-queued sweep, an overlapping follow-up study, a user
// double-submitting), and every model run here is bit-deterministic, so
// an identical (configuration, seed) pair *must* produce identical
// bits.  Serving the cached diagnostics is therefore exact, not
// approximate -- zero simulated steps, zero cluster occupancy.
//
// Only successful runs are cached: a failed member (restart budget
// exhausted, solver divergence) depends on its injected adversity, and
// campaigns retry failures on purpose in a later drain.
#pragma once

#include <cstdint>
#include <map>
#include <utility>

#include "farm/job.hpp"

namespace hyades::farm {

class ResultCache {
 public:
  using Key = std::pair<std::uint64_t, std::uint64_t>;  // (config, seed)

  // The cached result for the key, or nullptr on a miss (counted).
  [[nodiscard]] const JobResult* lookup(const Key& key);
  // Whether the key is cached; counts neither a hit nor a miss.
  [[nodiscard]] bool contains(const Key& key) const {
    return entries_.contains(key);
  }
  // Record a successful run.  First write wins: the bits are identical
  // by construction, and keeping the original preserves its cost
  // accounting in the producer's record.
  void insert(const Key& key, const JobResult& result);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::int64_t hits() const { return hits_; }
  [[nodiscard]] std::int64_t misses() const { return misses_; }

 private:
  std::map<Key, JobResult> entries_;  // ordered: iteration deterministic
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace hyades::farm
