#include "support/metrics.hpp"

namespace hyades::metrics {

Registry::Entry* Registry::find(const std::string& name) {
  for (Entry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

const Registry::Entry* Registry::find(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

void Registry::inc(const std::string& name, double v) {
  if (Entry* e = find(name)) {
    e->value += v;
  } else {
    entries_.push_back({name, v});
  }
}

void Registry::set(const std::string& name, double v) {
  if (Entry* e = find(name)) {
    e->value = v;
  } else {
    entries_.push_back({name, v});
  }
}

double Registry::get(const std::string& name) const {
  const Entry* e = find(name);
  return e ? e->value : 0.0;
}

bool Registry::has(const std::string& name) const {
  return find(name) != nullptr;
}

}  // namespace hyades::metrics
