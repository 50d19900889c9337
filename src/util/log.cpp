#include "util/log.hpp"

#include <atomic>
#include <ctime>
#include <mutex>

namespace drowsy::util {

namespace {
std::atomic<LogLevel> g_level{LogLevel::Warn};
std::mutex g_write_mutex;  // one whole line per message on stderr

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Trace: return "TRACE";
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO";
    case LogLevel::Warn: return "WARN";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off: return "OFF";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }

LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

/// The UTC wall-clock stamp ("2026-08-08T12:00:00Z") lets interleaved
/// daemon logs from different machines line up without timezone
/// archaeology.
void log_message(LogLevel level, const char* component, const std::string& message) {
  std::lock_guard lock(g_write_mutex);
  char stamp[32] = "";
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  if (gmtime_r(&now, &tm_utc) != nullptr) {
    std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  }
  std::fprintf(stderr, "%s [%-5s] %-12s %s\n", stamp, level_name(level), component,
               message.c_str());
}

}  // namespace drowsy::util
