// Minimal leveled logger.  Experiments run millions of simulated events;
// logging is compiled in but off (Warn) by default so benches stay quiet.
#pragma once

#include <cstdio>
#include <string>
#include <utility>

namespace drowsy::util {

enum class LogLevel { Trace = 0, Debug = 1, Info = 2, Warn = 3, Error = 4, Off = 5 };

/// Global log threshold; messages below it are discarded.
void set_log_level(LogLevel level);
[[nodiscard]] LogLevel log_level();

/// printf-style logging entry point.  Prefer the LOG_* macros below.
/// Writes one timestamped line per message to stderr,
/// "2026-08-08T12:00:00Z [WARN ] component message", under a mutex so
/// lines from concurrent sweep workers never interleave.
void log_message(LogLevel level, const char* component, const std::string& message);

namespace detail {
template <typename... Args>
std::string format(const char* fmt, Args&&... args) {
  if constexpr (sizeof...(Args) == 0) {
    return fmt;
  } else {
    const int n = std::snprintf(nullptr, 0, fmt, std::forward<Args>(args)...);
    std::string out(static_cast<std::size_t>(n > 0 ? n : 0), '\0');
    if (n > 0) std::snprintf(out.data(), out.size() + 1, fmt, std::forward<Args>(args)...);
    return out;
  }
}
}  // namespace detail

template <typename... Args>
void log_at(LogLevel level, const char* component, const char* fmt, Args&&... args) {
  if (level < log_level()) return;
  log_message(level, component, detail::format(fmt, std::forward<Args>(args)...));
}

}  // namespace drowsy::util

#define DROWSY_LOG_DEBUG(component, ...) \
  ::drowsy::util::log_at(::drowsy::util::LogLevel::Debug, component, __VA_ARGS__)
#define DROWSY_LOG_INFO(component, ...) \
  ::drowsy::util::log_at(::drowsy::util::LogLevel::Info, component, __VA_ARGS__)
#define DROWSY_LOG_WARN(component, ...) \
  ::drowsy::util::log_at(::drowsy::util::LogLevel::Warn, component, __VA_ARGS__)
#define DROWSY_LOG_ERROR(component, ...) \
  ::drowsy::util::log_at(::drowsy::util::LogLevel::Error, component, __VA_ARGS__)
