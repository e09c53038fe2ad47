#include "src/common/logging.h"

#include <cstdio>
#include <cstdlib>

namespace adaserve {

void CheckFailure(const char* file, int line, const char* expr, const std::string& message) {
  std::fprintf(stderr, "[CHECK %s:%d] %s failed. %s\n", file, line, expr, message.c_str());
  std::abort();
}

}  // namespace adaserve
