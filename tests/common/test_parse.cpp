// Regression tests for the strict whole-string numeric parsers. The strto*
// family silently skips leading whitespace before the consumed-character
// count starts, so " 42" used to slip through the whole-string check — these
// pin the strict contract: no whitespace anywhere, no trailing junk, no hex
// spellings, sign prefixes only where the type admits them.
#include <gtest/gtest.h>

#include "common/parse.hpp"

namespace essns {
namespace {

TEST(ParseIntTest, ParsesPlainIntegers) {
  EXPECT_EQ(parse_int("0"), 0);
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-17"), -17);
  EXPECT_EQ(parse_int("+7"), 7);  // explicit sign prefixes are valid ints
}

TEST(ParseIntTest, RejectsWhitespace) {
  EXPECT_FALSE(parse_int(" 42").has_value());
  EXPECT_FALSE(parse_int("\t42").has_value());
  EXPECT_FALSE(parse_int("\n42").has_value());
  EXPECT_FALSE(parse_int("42 ").has_value());
  EXPECT_FALSE(parse_int("4 2").has_value());
  EXPECT_FALSE(parse_int(" ").has_value());
  EXPECT_FALSE(parse_int("").has_value());
}

TEST(ParseIntTest, RejectsJunkAndOverflow) {
  EXPECT_FALSE(parse_int("12abc").has_value());
  EXPECT_FALSE(parse_int("0x10").has_value());
  EXPECT_FALSE(parse_int("abc").has_value());
  EXPECT_FALSE(parse_int("99999999999999999999").has_value());
  EXPECT_FALSE(parse_int("--5").has_value());
  EXPECT_FALSE(parse_int("+-5").has_value());
}

TEST(ParseDoubleTest, ParsesPlainNumbers) {
  EXPECT_EQ(parse_double("1.5"), 1.5);
  EXPECT_EQ(parse_double("-0.25"), -0.25);
  EXPECT_EQ(parse_double("+3"), 3.0);
  EXPECT_EQ(parse_double("1e3"), 1000.0);
  EXPECT_EQ(parse_double(".5"), 0.5);
}

TEST(ParseDoubleTest, RejectsWhitespace) {
  EXPECT_FALSE(parse_double(" 1.5").has_value());
  EXPECT_FALSE(parse_double("\t1.5").has_value());
  EXPECT_FALSE(parse_double("1.5 ").has_value());
  EXPECT_FALSE(parse_double("1 .5").has_value());
  EXPECT_FALSE(parse_double("").has_value());
}

TEST(ParseDoubleTest, RejectsHexSpellings) {
  // std::stod happily parses C99 hex floats; no config surface means them.
  EXPECT_FALSE(parse_double("0x10").has_value());
  EXPECT_FALSE(parse_double("0X10").has_value());
  EXPECT_FALSE(parse_double("+0x1p4").has_value());
  EXPECT_FALSE(parse_double("-0x.8").has_value());
}

TEST(ParseDoubleTest, RejectsJunk) {
  EXPECT_FALSE(parse_double("1.5abc").has_value());
  EXPECT_FALSE(parse_double("abc").has_value());
  EXPECT_FALSE(parse_double("1.2.3").has_value());
}

TEST(ParseDoubleTest, RejectsNonFinite) {
  // std::stod accepts every one of these; a NaN threshold compares false
  // against everything and silently disables the check it feeds.
  for (const char* text : {"nan", "NaN", "NAN", "-nan", "+nan", "nan(1)",
                           "inf", "-inf", "+inf", "INF", "Infinity",
                           "-infinity", "1e999", "-1e999"})
    EXPECT_FALSE(parse_double(text).has_value()) << text;
  EXPECT_EQ(parse_double("1.7976931348623157e308"), 1.7976931348623157e308);
  EXPECT_EQ(parse_double("-1e-300"), -1e-300);
}

TEST(ParseUint64Test, ParsesFullRange) {
  EXPECT_EQ(parse_uint64("0"), 0u);
  EXPECT_EQ(parse_uint64("18446744073709551615"),
            18446744073709551615ULL);  // 2^64 - 1 round-trips exactly
}

TEST(ParseUint64Test, RejectsWhitespaceAndSigns) {
  EXPECT_FALSE(parse_uint64(" 7").has_value());
  EXPECT_FALSE(parse_uint64("\t7").has_value());
  EXPECT_FALSE(parse_uint64("7 ").has_value());
  EXPECT_FALSE(parse_uint64("-1").has_value());
  EXPECT_FALSE(parse_uint64("+1").has_value());
  EXPECT_FALSE(parse_uint64(" -1").has_value());
  EXPECT_FALSE(parse_uint64("").has_value());
}

TEST(ParseUint64Test, RejectsJunkAndOverflow) {
  EXPECT_FALSE(parse_uint64("0x10").has_value());
  EXPECT_FALSE(parse_uint64("12junk").has_value());
  EXPECT_FALSE(parse_uint64("18446744073709551616").has_value());  // 2^64
}

}  // namespace
}  // namespace essns
