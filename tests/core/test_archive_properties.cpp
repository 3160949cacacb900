// Parameterized invariants that every archive policy must satisfy.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/archive.hpp"

namespace essns::core {
namespace {

// gtest prints this struct's raw bytes into the test name ctest registers, so
// it must hold no padding: `reserved` fills the gap after the 4-byte enum and
// is always zero, keeping the name the same from run to run.
struct PolicyCase {
  PolicyCase(ArchivePolicy p, std::size_t cap, const char* n)
      : policy(p), capacity(cap), name(n) {}

  ArchivePolicy policy;
  std::uint32_t reserved = 0;
  std::size_t capacity;
  const char* name;
};
static_assert(sizeof(PolicyCase) == sizeof(ArchivePolicy) +
                                        sizeof(std::uint32_t) +
                                        sizeof(std::size_t) + sizeof(char*),
              "PolicyCase must have no padding bytes");

class ArchivePolicySweep : public ::testing::TestWithParam<PolicyCase> {
 protected:
  static ArchiveConfig config_of(const PolicyCase& c) {
    ArchiveConfig cfg;
    cfg.policy = c.policy;
    cfg.capacity = c.capacity;
    cfg.novelty_threshold = 0.1;
    return cfg;
  }

  static std::vector<ea::Individual> random_batch(Rng& rng, std::size_t n) {
    std::vector<ea::Individual> out(n);
    for (auto& ind : out) {
      ind.genome = {rng.uniform(), rng.uniform()};
      ind.fitness = rng.uniform();
      ind.novelty = rng.uniform();
    }
    return out;
  }
};

TEST_P(ArchivePolicySweep, NeverExceedsCapacityUnlessUnbounded) {
  const PolicyCase& c = GetParam();
  NoveltyArchive archive(config_of(c), 17);
  Rng rng(3);
  for (int round = 0; round < 50; ++round)
    archive.update(random_batch(rng, 16));
  if (c.policy == ArchivePolicy::kUnbounded) {
    EXPECT_EQ(archive.size(), 50u * 16u);
  } else {
    EXPECT_LE(archive.size(), c.capacity);
  }
}

TEST_P(ArchivePolicySweep, ArchivedItemsAreRealCandidates) {
  const PolicyCase& c = GetParam();
  NoveltyArchive archive(config_of(c), 17);
  Rng rng(5);
  std::vector<ea::Individual> all;
  for (int round = 0; round < 10; ++round) {
    auto batch = random_batch(rng, 8);
    all.insert(all.end(), batch.begin(), batch.end());
    archive.update(batch);
  }
  for (const auto& archived : archive.items()) {
    const bool found = std::any_of(all.begin(), all.end(), [&](const auto& x) {
      return x.genome == archived.genome && x.novelty == archived.novelty;
    });
    EXPECT_TRUE(found);
  }
}

TEST_P(ArchivePolicySweep, EmptyUpdateIsNoop) {
  const PolicyCase& c = GetParam();
  NoveltyArchive archive(config_of(c), 17);
  archive.update({});
  EXPECT_TRUE(archive.empty());
}

TEST_P(ArchivePolicySweep, DeterministicForSeed) {
  const PolicyCase& c = GetParam();
  NoveltyArchive a1(config_of(c), 99), a2(config_of(c), 99);
  Rng r1(7), r2(7);
  for (int round = 0; round < 20; ++round) {
    a1.update(random_batch(r1, 8));
    a2.update(random_batch(r2, 8));
  }
  ASSERT_EQ(a1.size(), a2.size());
  for (std::size_t i = 0; i < a1.size(); ++i)
    EXPECT_EQ(a1.items()[i].genome, a2.items()[i].genome);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ArchivePolicySweep,
    ::testing::Values(
        PolicyCase{ArchivePolicy::kNoveltyRanked, 8, "ranked8"},
        PolicyCase{ArchivePolicy::kNoveltyRanked, 64, "ranked64"},
        PolicyCase{ArchivePolicy::kRandom, 8, "random8"},
        PolicyCase{ArchivePolicy::kRandom, 64, "random64"},
        PolicyCase{ArchivePolicy::kThreshold, 16, "threshold16"},
        PolicyCase{ArchivePolicy::kAdaptiveThreshold, 16, "adaptive16"},
        PolicyCase{ArchivePolicy::kUnbounded, 1, "unbounded"}),
    [](const ::testing::TestParamInfo<PolicyCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace essns::core
