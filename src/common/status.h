// Lightweight status / result types used across the V-LoRA codebase.
//
// The library avoids exceptions on hot paths; fallible construction and
// configuration steps return Status or Result<T>. Irrecoverable programming
// errors use VLORA_CHECK, which aborts with a message.

#ifndef VLORA_SRC_COMMON_STATUS_H_
#define VLORA_SRC_COMMON_STATUS_H_

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <variant>

namespace vlora {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kResourceExhausted,
  kFailedPrecondition,
  kOutOfRange,
  kUnimplemented,
  kInternal,
  kCancelled,
  kDeadlineExceeded,
  kUnavailable,
};

// Human-readable name for a status code.
constexpr const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kUnimplemented:
      return "UNIMPLEMENTED";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kCancelled:
      return "CANCELLED";
    case StatusCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case StatusCode::kUnavailable:
      return "UNAVAILABLE";
  }
  return "UNKNOWN";
}

// A Status carries a code plus an optional message. The OK status carries no
// message and is cheap to copy. [[nodiscard]] at class scope: any function
// returning Status (or Result) must have its return value examined.
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message) : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) { return Status(StatusCode::kNotFound, std::move(msg)); }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Internal(std::string msg) { return Status(StatusCode::kInternal, std::move(msg)); }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    if (ok()) {
      return "OK";
    }
    return std::string(StatusCodeName(code_)) + ": " + message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

// Result<T> holds either a value or a non-OK Status.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : payload_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status)                            // NOLINT(google-explicit-constructor)
      : payload_(std::move(status)) {}

  bool ok() const { return std::holds_alternative<T>(payload_); }

  const T& value() const& { return std::get<T>(payload_); }
  T& value() & { return std::get<T>(payload_); }
  T&& value() && { return std::get<T>(std::move(payload_)); }

  Status status() const {
    if (ok()) {
      return Status::Ok();
    }
    return std::get<Status>(payload_);
  }

  const T& operator*() const& { return value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<T, Status> payload_;
};

namespace internal {
[[noreturn]] inline void CheckFailed(const char* file, int line, const char* expr) {
  std::fprintf(stderr, "VLORA_CHECK failed at %s:%d: %s\n", file, line, expr);
  std::abort();
}
}  // namespace internal

}  // namespace vlora

#define VLORA_CHECK(expr)                                    \
  do {                                                       \
    if (!(expr)) {                                           \
      ::vlora::internal::CheckFailed(__FILE__, __LINE__, #expr); \
    }                                                        \
  } while (false)

#define VLORA_RETURN_IF_ERROR(expr)    \
  do {                                 \
    ::vlora::Status status_ = (expr);  \
    if (!status_.ok()) {               \
      return status_;                  \
    }                                  \
  } while (false)

#endif  // VLORA_SRC_COMMON_STATUS_H_
