#include "src/common/logging.h"

#include <cstdio>
#include <cstring>

#include "src/common/sync.h"

namespace vlora {

namespace {
constinit RelaxedAtomic<int> g_level{static_cast<int>(LogLevel::kWarning)};
// Serialises stderr writes so lines never interleave. kLogging ranks below
// everything: any thread may log while holding any lock.
Mutex g_emit_mutex{Rank::kLogging, "g_emit_mutex"};

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}
}  // namespace

// g_level only filters; no other data is ordered through it.
void SetLogLevel(LogLevel level) { g_level.Store(static_cast<int>(level)); }

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line) : level_(level) {
  stream_ << "[" << LevelTag(level) << " " << Basename(file) << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  if (static_cast<int>(level_) < g_level.Load()) {
    return;
  }
  MutexLock lock(&g_emit_mutex);
  std::fprintf(stderr, "%s\n", stream_.str().c_str());
}

}  // namespace internal
}  // namespace vlora
