// Minimal leveled logger. Thread-safe, writes to stderr.
//
// Usage:
//   VLORA_LOG(Info) << "loaded " << n << " adapters";
//
// The global level defaults to Warning so tests and benches stay quiet; callers
// (examples, servers) raise it explicitly.

#ifndef VLORA_SRC_COMMON_LOGGING_H_
#define VLORA_SRC_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace vlora {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
};

// Sets the process-wide minimum level that is actually emitted.
void SetLogLevel(LogLevel level);

namespace internal {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace vlora

#define VLORA_LOG(severity)                                                          \
  ::vlora::internal::LogMessage(::vlora::LogLevel::k##severity, __FILE__, __LINE__)

#endif  // VLORA_SRC_COMMON_LOGGING_H_
