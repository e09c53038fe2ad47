// Text codec suite: FormatExact round-trips doubles bit for bit,
// FormatFixed equals printf "%.*f" in the C locale, ParseNumber accepts
// only whole in-range numbers, and reading a missing file is an error.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "src/common/text.h"

namespace adaserve {
namespace {

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(TextCodec, FormatExactRoundTripsBitForBit) {
  for (double v : {0.1, -0.0, std::numeric_limits<double>::denorm_min(), DBL_MAX, 1.0 / 3.0}) {
    double back = 1.0;
    ASSERT_TRUE(ParseNumber(FormatExact(v), &back)) << FormatExact(v);
    EXPECT_EQ(Bits(back), Bits(v)) << FormatExact(v);
  }
  EXPECT_EQ(FormatExact(0.1), "0.10000000000000001");
  EXPECT_EQ(FormatExact(-0.0), "-0");
}

TEST(TextCodec, FormatFixedEqualsPrintf) {
  for (double v : {0.0, -0.0, 0.5, 1.5, 2.5, -2.675, 1e-7, 123456.789, 1e21, -DBL_MAX,
                   std::numeric_limits<double>::denorm_min()}) {
    for (int digits : {0, 1, 2, 6, 17}) {
      char want[512];
      std::snprintf(want, sizeof(want), "%.*f", digits, v);
      EXPECT_EQ(FormatFixed(v, digits), want) << v << " with " << digits << " digits";
    }
  }
}

TEST(TextCodec, ParseNumberRejectsAnythingButOneWholeNumber) {
  int i = 7;
  EXPECT_FALSE(ParseNumber("", &i));
  EXPECT_FALSE(ParseNumber(" 1", &i));
  EXPECT_FALSE(ParseNumber("1 ", &i));
  EXPECT_FALSE(ParseNumber("+1", &i));
  EXPECT_FALSE(ParseNumber("2147483648", &i));
  EXPECT_EQ(i, 7) << "a failed parse must leave the output alone";
  double d = 0.0;
  EXPECT_FALSE(ParseNumber("1.5x", &d));
  uint64_t u = 0;
  EXPECT_FALSE(ParseNumber("-1", &u));
  EXPECT_TRUE(ParseNumber("18446744073709551615", &u));
  EXPECT_EQ(u, std::numeric_limits<uint64_t>::max());
  EXPECT_TRUE(ParseNumber("-2147483648", &i));
  EXPECT_EQ(i, std::numeric_limits<int>::min());
}

// Doubles take "nan" and "inf" like any number: a caller that needs a
// finite value (arrival times, SLOs) has to check for itself.
TEST(TextCodec, ParseNumberAcceptsNonFiniteDoubles) {
  double d = 0.0;
  ASSERT_TRUE(ParseNumber("nan", &d));
  EXPECT_TRUE(std::isnan(d));
  ASSERT_TRUE(ParseNumber("inf", &d));
  EXPECT_TRUE(std::isinf(d));
  ASSERT_TRUE(ParseNumber("-inf", &d));
  EXPECT_LT(d, 0.0);
}

TEST(TextCodec, SetLineErrorPrefixesTheLineAndReturnsFalse) {
  std::string error;
  EXPECT_FALSE(SetLineError(&error, 12, "bad thing"));
  EXPECT_EQ(error, "line 12: bad thing");
  EXPECT_FALSE(SetLineError(nullptr, 1, "ignored"));
}

TEST(TextCodec, ReadingAMissingFileFails) {
  std::string contents = "untouched";
  std::string error;
  EXPECT_FALSE(ReadTextFile("/nonexistent/adaserve.txt", &contents, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(TextCodec, FileRoundTripIsByteExact) {
  const std::string path = testing::TempDir() + "/adaserve_text_roundtrip.txt";
  const std::string text = std::string("a: 1\r\nb\0c\n", 11);
  std::string error;
  ASSERT_TRUE(WriteTextFile(path, text, &error)) << error;
  std::string read;
  ASSERT_TRUE(ReadTextFile(path, &read, &error)) << error;
  EXPECT_EQ(read, text);
  ASSERT_TRUE(WriteTextFile(path, "", &error)) << error;
  ASSERT_TRUE(ReadTextFile(path, &read, &error)) << error;
  EXPECT_EQ(read, "");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace adaserve
