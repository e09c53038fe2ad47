// The text codec: every number the library writes or reads as text and
// every file it reads or writes goes through here — trace CSV, replay
// artifacts, golden and cluster metrics text, report tables.
//
// Numbers go through std::to_chars / std::from_chars, which ignore the
// C locale. printf-family calls and std::stod honour LC_NUMERIC, so under
// a comma-decimal locale (de_DE et al.) they write "0,5" and stop reading
// "0.5" at the period; the forms here match printf's C-locale output byte
// for byte on every host.
#ifndef ADASERVE_SRC_COMMON_TEXT_H_
#define ADASERVE_SRC_COMMON_TEXT_H_

#include <charconv>
#include <cstddef>
#include <string>
#include <string_view>
#include <system_error>

namespace adaserve {

// printf "%.17g": 17 significant digits, which parse back to the same
// double bit for bit.
std::string FormatExact(double value);

// printf "%.*f" with `digits` decimals (0 <= digits <= 100).
std::string FormatFixed(double value, int digits);

// Parses all of `text` as a T (an integer type or double). Fails on empty
// text, leading whitespace or '+', trailing characters, and values out of
// T's range (a '-' for an unsigned T); *out is only written on success.
// Doubles accept "nan" and "inf": callers that need a finite value check.
template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    return false;
  }
  *out = value;
  return true;
}

// Sets *error (when non-null) to "line <line_no>: <message>", the error
// form of every line-oriented parser. Returns false, so a parser can
// `return SetLineError(...)`.
bool SetLineError(std::string* error, size_t line_no, const std::string& message);

// Reads the whole file at `path` into *contents. False with
// "cannot open '<path>'" in *error (when non-null) if it cannot.
bool ReadTextFile(const std::string& path, std::string* contents, std::string* error);

// Replaces the file at `path` with `contents`. False with the reason in
// *error (when non-null) if the file cannot be opened or written.
bool WriteTextFile(const std::string& path, std::string_view contents, std::string* error);

}  // namespace adaserve

#endif  // ADASERVE_SRC_COMMON_TEXT_H_
