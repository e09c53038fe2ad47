#include "src/common/text.h"

#include <fstream>
#include <iterator>

#include "src/common/logging.h"

namespace adaserve {

std::string FormatExact(double value) {
  char buf[32];
  const auto [ptr, ec] =
      std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::general, 17);
  ADASERVE_CHECK(ec == std::errc()) << "cannot format a double";
  return std::string(buf, ptr);
}

std::string FormatFixed(double value, int digits) {
  ADASERVE_CHECK(digits >= 0 && digits <= 100) << "bad digit count " << digits;
  // The widest fixed form is -DBL_MAX: a sign, 309 integer digits, the
  // point and the decimals.
  char buf[416];
  const auto [ptr, ec] =
      std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::fixed, digits);
  ADASERVE_CHECK(ec == std::errc()) << "cannot format a double";
  return std::string(buf, ptr);
}

bool SetLineError(std::string* error, size_t line_no, const std::string& message) {
  if (error != nullptr) {
    *error = "line " + std::to_string(line_no) + ": " + message;
  }
  return false;
}

bool ReadTextFile(const std::string& path, std::string* contents, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) {
      *error = "cannot open '" + path + "'";
    }
    return false;
  }
  contents->assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  return true;
}

bool WriteTextFile(const std::string& path, std::string_view contents, std::string* error) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (error != nullptr) {
      *error = "cannot open '" + path + "' for writing";
    }
    return false;
  }
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  out.flush();
  if (!out) {
    if (error != nullptr) {
      *error = "write to '" + path + "' failed";
    }
    return false;
  }
  return true;
}

}  // namespace adaserve
