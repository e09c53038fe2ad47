// Check macro: ADASERVE_CHECK(expr) << message aborts with the message when
// `expr` is false. Checks guard internal invariants, not user input.
#ifndef ADASERVE_SRC_COMMON_LOGGING_H_
#define ADASERVE_SRC_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace adaserve {

// Aborts the process after printing the message. Used by ADASERVE_CHECK.
[[noreturn]] void CheckFailure(const char* file, int line, const char* expr,
                               const std::string& message);

namespace internal {

// Stream collector backing ADASERVE_CHECK.
class CheckStream {
 public:
  CheckStream(const char* file, int line, const char* expr)
      : file_(file), line_(line), expr_(expr) {}
  [[noreturn]] ~CheckStream() { CheckFailure(file_, line_, expr_, stream_.str()); }

  template <typename T>
  CheckStream& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  const char* file_;
  int line_;
  const char* expr_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace adaserve

#define ADASERVE_CHECK(expr)                                          \
  if (expr) {                                                         \
  } else                                                              \
    ::adaserve::internal::CheckStream(__FILE__, __LINE__, #expr)

#endif  // ADASERVE_SRC_COMMON_LOGGING_H_
