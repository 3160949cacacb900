#include "parallel/placement.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace essns::parallel {
namespace {

using Cpus = std::vector<int>;
using SlotCpus = std::vector<Cpus>;

TEST(LanePlacementTest, OneSlotTakesTheAllowedCpusInOrder) {
  EXPECT_EQ(assign_lane_cpus({1, 2, 3}, 1, 3), (SlotCpus{{1, 2, 3}}));
  EXPECT_EQ(assign_lane_cpus({0, 1, 2, 3}, 2, 2), (SlotCpus{{0, 1}, {2, 3}}));
}

TEST(LanePlacementTest, OversubscribedRequestPinsNothing) {
  EXPECT_EQ(assign_lane_cpus({0, 1, 2, 3}, 2, 3), (SlotCpus{{}, {}}));
  EXPECT_EQ(assign_lane_cpus({}, 1, 2), (SlotCpus{{}}));
}

TEST(LanePlacementTest, SlotsNeverShareALaneCpu) {
  const Cpus allowed = {0, 2, 4, 5, 6, 9, 11, 12};
  for (unsigned slots = 1; slots <= 4; ++slots) {
    for (unsigned lanes = 2; slots * lanes <= allowed.size(); ++lanes) {
      const SlotCpus cpus = assign_lane_cpus(allowed, slots, lanes);
      std::set<int> seen;
      for (const Cpus& slot : cpus) {
        ASSERT_EQ(slot.size(), lanes);
        for (const int cpu : slot) {
          EXPECT_TRUE(seen.insert(cpu).second) << "cpu " << cpu << " twice";
          EXPECT_NE(std::find(allowed.begin(), allowed.end(), cpu),
                    allowed.end());
        }
      }
    }
  }
}

TEST(LanePlacementTest, LiveLeasesNeverShareACpu) {
  CpuAllocator allocator({3, 1, 2, 0, 1});  // unsorted, with a duplicate
  EXPECT_EQ(allocator.free_cpus(), (Cpus{0, 1, 2, 3}));
  CpuLease first = allocator.acquire(1, 3);
  EXPECT_EQ(first.slot_cpus(0), (Cpus{0, 1, 2}));
  {
    // One CPU left: a second engine's 1 x 2 lanes do not fit and float.
    const CpuLease second = allocator.acquire(1, 2);
    EXPECT_TRUE(second.slot_cpus(0).empty());
    EXPECT_EQ(allocator.free_cpus(), (Cpus{3}));
  }
  CpuLease moved = std::move(first);
  EXPECT_EQ(moved.slot_cpus(0), (Cpus{0, 1, 2}));
  EXPECT_EQ(allocator.free_cpus(), (Cpus{3}));
  moved = CpuLease();  // releases its CPUs
  EXPECT_EQ(allocator.free_cpus(), (Cpus{0, 1, 2, 3}));
  const CpuLease again = allocator.acquire(2, 2);
  EXPECT_EQ(again.slot_cpus(0), (Cpus{0, 1}));
  EXPECT_EQ(again.slot_cpus(1), (Cpus{2, 3}));
  EXPECT_TRUE(again.slot_cpus(2).empty());
}

TEST(LanePlacementTest, ProcessAllocatorStartsFromTheAffinityMask) {
  const Cpus allowed = allowed_cpus();
  EXPECT_FALSE(allowed.empty());
  EXPECT_TRUE(std::is_sorted(allowed.begin(), allowed.end()));
  EXPECT_EQ(CpuAllocator::process().free_cpus(), allowed);
}

}  // namespace
}  // namespace essns::parallel
