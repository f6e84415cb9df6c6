// Lightweight error-handling primitives in the RocksDB/Abseil tradition.
//
// The library does not use exceptions (see DESIGN.md, "Conventions"); fallible
// operations return Status or StatusOr<T> instead.

#ifndef BIGINDEX_UTIL_STATUS_H_
#define BIGINDEX_UTIL_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace bigindex {

/// Error categories used across the library.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kCorruption,
  kIOError,
  kFailedPrecondition,
  kOutOfRange,
  kUnimplemented,
  kDeadlineExceeded,
  kUnavailable,
};

/// The code's name as Status::ToString() and the wire's ERR lines spell it.
const char* StatusCodeName(StatusCode code);

/// Result of a fallible operation: an error code plus human-readable message.
///
/// A default-constructed Status is OK. Statuses are cheap to copy (the message
/// is empty on the fast path).
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  /// A per-request deadline expired before (or while) the work ran. The
  /// request produced no partial results.
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  /// Transient overload / shutdown: the caller may retry later, ideally with
  /// backoff. This is the serving layer's backpressure signal.
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<code>: <message>", for logs and test failure output.
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or an error Status. Dereferencing a non-OK
/// StatusOr is a programming error (checked by assert in debug builds).
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT: implicit
    assert(!status_.ok() && "OK status requires a value");
  }
  StatusOr(T value)  // NOLINT: implicit by design, mirrors absl::StatusOr
      : status_(Status::OK()), value_(std::move(value)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Propagates a non-OK status to the caller.
#define BIGINDEX_RETURN_IF_ERROR(expr)            \
  do {                                            \
    ::bigindex::Status _st = (expr);              \
    if (!_st.ok()) return _st;                    \
  } while (0)

}  // namespace bigindex

#endif  // BIGINDEX_UTIL_STATUS_H_
