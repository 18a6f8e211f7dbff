// Lightweight precondition / invariant checking.
//
// FSBB_CHECK is always on (library boundary validation: cheap, user-facing).
// FSBB_ASSERT compiles out in NDEBUG builds (hot-path internal invariants).
// Both throw fsbb::CheckFailure so tests can assert on violations instead of
// aborting the process.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>

namespace fsbb {

/// Thrown when a FSBB_CHECK / FSBB_ASSERT condition is violated. what() is
/// the full diagnostic (for logs and the CLI); message() is the part meant
/// for a remote client, without the failed expression or source location.
class CheckFailure : public std::logic_error {
 public:
  explicit CheckFailure(const std::string& what)
      : std::logic_error(what), message_(what) {}
  CheckFailure(const std::string& what, std::string message)
      : std::logic_error(what), message_(std::move(message)) {}

  const std::string& message() const { return message_; }

 private:
  std::string message_;
};

/// The client-facing text of an exception: CheckFailure::message(), else
/// what().
inline std::string user_message(const std::exception& e) {
  if (const auto* check = dynamic_cast<const CheckFailure*>(&e)) {
    return check->message();
  }
  return e.what();
}

namespace detail {
[[noreturn]] inline void check_failed(const char* cond, const char* file,
                                      int line, const std::string& msg) {
  std::string what = std::string("check failed: ") + cond + " at " + file +
                     ":" + std::to_string(line);
  if (!msg.empty()) what += " — " + msg;
  throw CheckFailure(what, msg.empty() ? "internal check failed" : msg);
}
}  // namespace detail

}  // namespace fsbb

#define FSBB_CHECK(cond)                                                  \
  do {                                                                    \
    if (!(cond)) ::fsbb::detail::check_failed(#cond, __FILE__, __LINE__, ""); \
  } while (false)

#define FSBB_CHECK_MSG(cond, msg)                                          \
  do {                                                                     \
    if (!(cond))                                                           \
      ::fsbb::detail::check_failed(#cond, __FILE__, __LINE__, (msg));      \
  } while (false)

// In NDEBUG builds the condition is *not evaluated*, but it stays inside
// the expansion under sizeof: typos in asserted expressions still fail to
// compile, and locals referenced only by asserts still count as used (no
// -Wunused-variable / -Wunused-but-set-variable under -Wall -Wextra
// -Werror). sizeof never evaluates its operand, and `!` forces the
// condition into a valid boolean expression context.
#ifdef NDEBUG
#define FSBB_ASSERT(cond)        \
  do {                           \
    (void)sizeof(!(cond));       \
  } while (false)
#else
#define FSBB_ASSERT(cond) FSBB_CHECK(cond)
#endif
