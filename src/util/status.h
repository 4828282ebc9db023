// Status and Result<T>: explicit error propagation without exceptions.
//
// A Status is either OK or carries an error code plus a human-readable
// message. Result<T> is a Status together with a value present iff the
// status is OK. These are the return types of every fallible operation in
// the Nymix libraries (Core Guidelines E.2: use a designed error-handling
// strategy; we pick value-based errors for a systems library).
#ifndef SRC_UTIL_STATUS_H_
#define SRC_UTIL_STATUS_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "src/util/check.h"

namespace nymix {

enum class StatusCode {
  kOk = 0,
  kNotFound,
  kAlreadyExists,
  kInvalidArgument,
  kPermissionDenied,
  kFailedPrecondition,
  kResourceExhausted,
  kUnavailable,
  kDataLoss,
  kUnauthenticated,
  kInternal,
  kCancelled,
  kDeadlineExceeded,
};

// Human-readable name for a status code ("NOT_FOUND", ...).
std::string_view StatusCodeName(StatusCode code);

// [[nodiscard]] on the class makes every Status-returning call site either
// handle the error or discard it loudly; nymlint's error-ignored-status
// rule enforces the same contract at lint time.
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message) : code_(code), message_(std::move(message)) {}

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // Full "CODE: message" rendering for logs and test failures.
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

Status OkStatus();
Status NotFoundError(std::string message);
Status AlreadyExistsError(std::string message);
Status InvalidArgumentError(std::string message);
Status PermissionDeniedError(std::string message);
Status FailedPreconditionError(std::string message);
Status ResourceExhaustedError(std::string message);
Status UnavailableError(std::string message);
Status DataLossError(std::string message);
Status UnauthenticatedError(std::string message);
Status InternalError(std::string message);
Status CancelledError(std::string message);
Status DeadlineExceededError(std::string message);

// Result<T> holds a T on success or an error Status. Dereferencing a
// non-OK result is a programmer error and aborts.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}            // NOLINT(runtime/explicit)
  Result(Status status) : status_(std::move(status)) {     // NOLINT(runtime/explicit)
    NYMIX_CHECK_MSG(!status_.ok(), "Result constructed from OK status without a value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  T& value() {
    NYMIX_CHECK_MSG(ok(), status_.ToString().c_str());
    return *value_;
  }
  const T& value() const {
    NYMIX_CHECK_MSG(ok(), status_.ToString().c_str());
    return *value_;
  }

  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

// Propagate errors out of the current function.
#define NYMIX_RETURN_IF_ERROR(expr)           \
  do {                                        \
    ::nymix::Status nymix_status__ = (expr);  \
    if (!nymix_status__.ok()) {               \
      return nymix_status__;                  \
    }                                         \
  } while (0)

// Evaluate a Result-returning expression; bind the value or propagate.
#define NYMIX_CONCAT_INNER_(a, b) a##b
#define NYMIX_CONCAT_(a, b) NYMIX_CONCAT_INNER_(a, b)
#define NYMIX_ASSIGN_OR_RETURN(lhs, expr) \
  NYMIX_ASSIGN_OR_RETURN_IMPL_(NYMIX_CONCAT_(nymix_result__, __LINE__), lhs, expr)
#define NYMIX_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                 \
  if (!tmp.ok()) {                                   \
    return tmp.status();                             \
  }                                                  \
  lhs = std::move(*tmp)

}  // namespace nymix

#endif  // SRC_UTIL_STATUS_H_
