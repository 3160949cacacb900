#include "common/simd.hpp"

#include <gtest/gtest.h>

namespace essns::simd {
namespace {

TEST(SimdModeTest, ScalarModeAlwaysResolvesScalar) {
  EXPECT_EQ(resolve(Mode::kScalar), Isa::kScalar);
}

TEST(SimdModeTest, AutoResolvesToDetection) {
  // Whatever the host supports, auto must agree with detection — scalar on
  // an unsupporting host, never a trap.
  EXPECT_EQ(resolve(Mode::kAuto), detected_isa());
}

TEST(SimdModeTest, DetectionIsStable) {
  // cpuid is latched; repeated queries must not flap.
  const Isa first = detected_isa();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(detected_isa(), first);
  EXPECT_EQ(cpu_supports_avx2(), first == Isa::kAvx2);
}

}  // namespace
}  // namespace essns::simd
