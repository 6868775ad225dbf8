// Minimal thread-safe logging with severity levels.  The cluster runtime
// runs ranks on threads, so log lines must not interleave mid-line.
#pragma once

#include <sstream>
#include <string>

namespace hyades {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

// Global threshold; messages below it are dropped.  Defaults to kWarn so
// tests and benches stay quiet unless something is wrong.
void set_log_level(LogLevel level);
LogLevel log_level();

// Emit one complete line (severity tag prepended) under a global mutex.
void log_line(LogLevel level, const std::string& msg);

namespace detail {
class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  ~LogStream() { log_line(level_, os_.str()); }
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;

  template <typename T>
  LogStream& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};
}  // namespace detail

inline detail::LogStream log_debug() {
  return detail::LogStream(LogLevel::kDebug);
}
inline detail::LogStream log_info() { return detail::LogStream(LogLevel::kInfo); }
inline detail::LogStream log_warn() { return detail::LogStream(LogLevel::kWarn); }
inline detail::LogStream log_error() {
  return detail::LogStream(LogLevel::kError);
}

}  // namespace hyades
