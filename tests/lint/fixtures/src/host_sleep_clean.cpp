// Near-miss patterns for the host-sleep check in src/: prose, strings,
// longer identifiers and non-call uses of the names.  Zero findings.
#include <string>

// A comment may say std::this_thread::sleep_for(...) or usleep(50).
struct Backoff {
  double sleep_for_us = 0.0;  // a field, not the call
  int nanosleep_budget = 0;
  double usleep_hint() const { return sleep_for_us; }
};

std::string describe() { return "sleep_until(deadline) is not called here"; }

double budget(const Backoff& b) {
  const double sleep_until = b.usleep_hint();  // a local, not a call
  return sleep_until + b.nanosleep_budget;
}
