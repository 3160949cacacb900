#include "common/ascii_grid.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"

namespace essns {
namespace {

TEST(AsciiGridTest, RoundTripsThroughStream) {
  Grid<double> g(2, 3);
  double v = 0.5;
  for (auto& cell : g) cell = v += 1.0;

  std::stringstream buffer;
  write_ascii_grid(buffer, g, 30.0);
  const Grid<double> back = read_ascii_grid(buffer);
  EXPECT_EQ(back, g);
}

TEST(AsciiGridTest, WritesHeaderFields) {
  Grid<double> g(2, 2, 1.0);
  std::stringstream buffer;
  write_ascii_grid(buffer, g, 25.0, -1.0);
  const std::string text = buffer.str();
  EXPECT_NE(text.find("ncols 2"), std::string::npos);
  EXPECT_NE(text.find("nrows 2"), std::string::npos);
  EXPECT_NE(text.find("cellsize 25"), std::string::npos);
  EXPECT_NE(text.find("NODATA_value -1"), std::string::npos);
}

TEST(AsciiGridTest, ReadRejectsTruncatedHeader) {
  std::stringstream buffer("ncols 2\nnrows");
  EXPECT_THROW(read_ascii_grid(buffer), IoError);
}

TEST(AsciiGridTest, ReadRejectsTruncatedData) {
  std::stringstream buffer(
      "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
      "NODATA_value -9999\n1 2 3");
  EXPECT_THROW(read_ascii_grid(buffer), IoError);
}

TEST(AsciiGridTest, ReadRejectsUnknownKey) {
  std::stringstream buffer(
      "ncols 2\nnrows 2\nbogus 0\nyllcorner 0\ncellsize 1\n"
      "NODATA_value -9999\n1 2 3 4");
  EXPECT_THROW(read_ascii_grid(buffer), IoError);
}

// Regression tests for the strict common/parse.hpp port: the old stream
// extraction silently truncated "32.5" to 32 columns and accepted prefix
// junk; every malformed token must now throw IoError naming it.

TEST(AsciiGridTest, ReadRejectsFractionalDimensions) {
  std::stringstream buffer(
      "ncols 2.5\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
      "NODATA_value -9999\n1 2 3 4");
  EXPECT_THROW(read_ascii_grid(buffer), IoError);
}

TEST(AsciiGridTest, ReadRejectsHexDimensions) {
  std::stringstream buffer(
      "ncols 0x2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
      "NODATA_value -9999\n1 2 3 4");
  EXPECT_THROW(read_ascii_grid(buffer), IoError);
}

TEST(AsciiGridTest, ReadRejectsJunkHeaderValue) {
  std::stringstream buffer(
      "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1m\n"
      "NODATA_value -9999\n1 2 3 4");
  EXPECT_THROW(read_ascii_grid(buffer), IoError);
}

TEST(AsciiGridTest, ReadRejectsJunkDataValue) {
  std::stringstream buffer(
      "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
      "NODATA_value -9999\n1 2 3 4x");
  EXPECT_THROW(read_ascii_grid(buffer), IoError);
}

TEST(AsciiGridTest, ReadRejectsBareSignDataValue) {
  std::stringstream buffer(
      "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
      "NODATA_value -9999\n1 2 - 4");
  EXPECT_THROW(read_ascii_grid(buffer), IoError);
}

TEST(AsciiGridTest, ReadRejectsNonFiniteValues) {
  for (const char* value : {"nan", "-nan", "inf", "-inf", "Infinity"}) {
    std::stringstream cell(
        std::string("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\n"
                    "cellsize 1\nNODATA_value -9999\n1 2 ") +
        value + " 4");
    EXPECT_THROW(read_ascii_grid(cell), IoError) << value;
    std::stringstream header(
        std::string("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\n"
                    "cellsize ") +
        value + "\nNODATA_value -9999\n1 2 3 4");
    EXPECT_THROW(read_ascii_grid(header), IoError) << value;
  }
}

TEST(AsciiGridTest, ReadRejectsTrailingData) {
  std::stringstream buffer(
      "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
      "NODATA_value -9999\n1 2 3 4 5");
  EXPECT_THROW(read_ascii_grid(buffer), IoError);
}

TEST(AsciiGridTest, ReadAcceptsScientificNotationValues) {
  std::stringstream buffer(
      "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
      "NODATA_value -9999\n1e2 -2.5E-3 0.0 4");
  const Grid<double> grid = read_ascii_grid(buffer);
  EXPECT_DOUBLE_EQ(grid(0, 0), 100.0);
  EXPECT_DOUBLE_EQ(grid(0, 1), -2.5e-3);
}

TEST(AsciiGridTest, FileRoundTrip) {
  Grid<double> g(3, 3, 7.0);
  const std::string path = testing::TempDir() + "/essns_grid_test.asc";
  write_ascii_grid(path, g);
  const Grid<double> back = read_ascii_grid(path);
  EXPECT_EQ(back, g);
}

TEST(AsciiGridTest, MissingFileThrows) {
  EXPECT_THROW(read_ascii_grid("/nonexistent/definitely/missing.asc"),
               IoError);
}

}  // namespace
}  // namespace essns
