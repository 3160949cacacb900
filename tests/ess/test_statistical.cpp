#include "ess/statistical.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "stage_oracles.hpp"

namespace essns::ess {
namespace {

using firelib::IgnitionMap;
using firelib::kNeverIgnited;

// The Statistical Stage's path: pack each map's burned cells, aggregate the
// records.
Grid<double> aggregate_probability(std::span<const IgnitionMap> maps,
                                   double time_min) {
  std::vector<BurnedCells> packed;
  for (const IgnitionMap& map : maps)
    packed.push_back(firelib::burned_cells(map, time_min));
  std::vector<const BurnedCells*> records;
  for (const BurnedCells& cells : packed) records.push_back(&cells);
  return aggregate_burned(records);
}

TEST(AggregateTest, SingleMapGivesBinaryProbabilities) {
  IgnitionMap map(2, 2, kNeverIgnited);
  map(0, 0) = 5.0;
  map(1, 1) = 50.0;
  const Grid<double> p = aggregate_probability(std::vector{map}, 30.0);
  EXPECT_DOUBLE_EQ(p(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(p(1, 1), 0.0);  // ignites after the horizon
  EXPECT_DOUBLE_EQ(p(0, 1), 0.0);
}

TEST(AggregateTest, ProbabilityIsFractionOfMaps) {
  std::vector<IgnitionMap> maps(4, IgnitionMap(1, 1, kNeverIgnited));
  maps[0](0, 0) = 1.0;
  maps[1](0, 0) = 2.0;
  maps[2](0, 0) = 99.0;  // beyond horizon
  const Grid<double> p = aggregate_probability(maps, 10.0);
  EXPECT_DOUBLE_EQ(p(0, 0), 0.5);
}

TEST(AggregateTest, ValuesAlwaysInUnitInterval) {
  Rng rng(1);
  std::vector<IgnitionMap> maps;
  for (int m = 0; m < 7; ++m) {
    IgnitionMap map(3, 3, kNeverIgnited);
    for (auto& t : map)
      if (rng.bernoulli(0.6)) t = rng.uniform(0.0, 100.0);
    maps.push_back(std::move(map));
  }
  const Grid<double> p = aggregate_probability(maps, 50.0);
  for (double v : p) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(AggregateTest, EmptyThrows) {
  EXPECT_THROW(aggregate_probability({}, 10.0), InvalidArgument);
}

TEST(AggregateTest, MismatchedDimensionsThrow) {
  std::vector<IgnitionMap> maps;
  maps.emplace_back(2, 2, kNeverIgnited);
  maps.emplace_back(2, 3, kNeverIgnited);
  EXPECT_THROW(aggregate_probability(maps, 10.0), InvalidArgument);
}

TEST(AggregateTest, RecordOfAnotherShapeThrows) {
  // 100 and 121 cells both pack into two words; the shape still differs.
  const BurnedCells small =
      firelib::burned_cells(IgnitionMap(10, 10, 0.0), 1.0);
  const BurnedCells large =
      firelib::burned_cells(IgnitionMap(11, 11, 0.0), 1.0);
  using Records = std::vector<const BurnedCells*>;
  EXPECT_THROW(aggregate_burned(Records{&small, &large}), InvalidArgument);
  BurnedCells truncated = small;
  truncated.words.pop_back();
  EXPECT_THROW(aggregate_burned(Records{&small, &truncated}), InvalidArgument);
}

TEST(AggregateTest, PackedBitsFollowRowMajorCells) {
  IgnitionMap map(3, 30, kNeverIgnited);  // 90 cells: two words
  map(0, 0) = 1.0;
  map(2, 3) = 10.0;                       // cell 63: top bit of word 0
  map(2, 4) = 10.0;                       // cell 64: bit 0 of word 1
  map(2, 29) = 10.5;                      // after the horizon
  const BurnedCells burned = firelib::burned_cells(map, 10.0);
  EXPECT_EQ(burned.rows, 3);
  EXPECT_EQ(burned.cols, 30);
  ASSERT_EQ(burned.words.size(), 2u);
  EXPECT_EQ(burned.words[0], (std::uint64_t{1} << 63) | 1u);
  EXPECT_EQ(burned.words[1], 1u);
}

TEST(AggregateTest, PackedRecordsMatchMapOracleBitwise) {
  Rng rng(11);
  for (const auto& [rows, cols] : {std::pair{1, 1}, std::pair{7, 9},
                                  std::pair{8, 8}, std::pair{64, 64},
                                  std::pair{96, 96}}) {
    for (const int count : {1, 3, 64}) {
      std::vector<IgnitionMap> maps;
      for (int m = 0; m < count; ++m) {
        IgnitionMap map(rows, cols, kNeverIgnited);
        for (auto& t : map)
          if (rng.bernoulli(0.5)) t = rng.uniform(0.0, 100.0);
        maps.push_back(std::move(map));
      }
      const Grid<double> want = oracle::aggregate_probability(maps, 50.0);
      const Grid<double> got = aggregate_probability(maps, 50.0);
      ASSERT_EQ(got.rows(), want.rows());
      ASSERT_EQ(got.cols(), want.cols());
      for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got.data()[i]),
                  std::bit_cast<std::uint64_t>(want.data()[i]))
            << rows << "x" << cols << " maps=" << count << " cell " << i;
    }
  }
}

TEST(AggregateMasksTest, MatchesMapAggregation) {
  std::vector<IgnitionMap> maps(3, IgnitionMap(2, 2, kNeverIgnited));
  maps[0](0, 0) = 1.0;
  maps[1](0, 0) = 1.0;
  maps[2](1, 1) = 1.0;
  std::vector<Grid<std::uint8_t>> masks;
  for (const auto& m : maps) masks.push_back(firelib::burned_mask(m, 10.0));
  const Grid<double> from_maps = aggregate_probability(maps, 10.0);
  const Grid<double> from_masks = aggregate_probability_masks(masks);
  EXPECT_EQ(from_maps, from_masks);
}

TEST(ApplyKignTest, ThresholdIsInclusive) {
  Grid<double> p(1, 3, 0.0);
  p(0, 0) = 0.39;
  p(0, 1) = 0.40;
  p(0, 2) = 0.41;
  const auto burned = apply_kign(p, 0.40);
  EXPECT_EQ(burned(0, 0), 0);
  EXPECT_EQ(burned(0, 1), 1);
  EXPECT_EQ(burned(0, 2), 1);
}

TEST(ApplyKignTest, ZeroThresholdBurnsEverything) {
  Grid<double> p(2, 2, 0.0);
  const auto burned = apply_kign(p, 0.0);
  for (auto v : burned) EXPECT_EQ(v, 1);
}

TEST(ApplyKignTest, AboveMaxProbabilityBurnsNothing) {
  Grid<double> p(2, 2, 0.7);
  const auto burned = apply_kign(p, 0.9);
  for (auto v : burned) EXPECT_EQ(v, 0);
}

TEST(ApplyKignTest, RejectsOutOfRangeThreshold) {
  Grid<double> p(1, 1, 0.5);
  EXPECT_THROW(apply_kign(p, -0.1), InvalidArgument);
  EXPECT_THROW(apply_kign(p, 1.1), InvalidArgument);
}

TEST(ApplyKignTest, MonotoneInThreshold) {
  Rng rng(2);
  Grid<double> p(4, 4, 0.0);
  for (auto& v : p) v = rng.uniform();
  std::size_t previous = 17;  // 4*4 + 1
  for (double k = 0.1; k <= 1.0; k += 0.1) {
    const auto burned = apply_kign(p, k);
    const std::size_t count =
        burned.count_if([](std::uint8_t v) { return v != 0; });
    EXPECT_LE(count, previous);
    previous = count;
  }
}

}  // namespace
}  // namespace essns::ess
