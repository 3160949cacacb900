#include "cache/scenario_cache.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "firelib/scenario.hpp"

namespace essns::cache {
namespace {

/// A key whose nine parameter words encode `id` (context optional).
ScenarioKey key_of(std::uint64_t id, std::uint64_t context = 0) {
  ScenarioKey key;
  key.context = context;
  key.params[1] = id;
  return key;
}

/// A value holding an 8x8 map whose cells encode `id` (so a lookup can be
/// checked against the key that stored it — the pure-function contract).
CachedScenario map_value(double id) {
  CachedScenario value;
  value.map = firelib::IgnitionMap(8, 8, id);
  return value;
}

TEST(CachePolicy, RoundTripsThroughStrings) {
  for (const CachePolicy policy :
       {CachePolicy::kOff, CachePolicy::kStep, CachePolicy::kShared})
    EXPECT_EQ(parse_cache_policy(to_string(policy)), policy);
  // Boolean spellings are not policies.
  for (const char* legacy : {"on", "true", "1", "false", "0"})
    EXPECT_FALSE(parse_cache_policy(legacy).has_value()) << legacy;
  EXPECT_FALSE(parse_cache_policy("maybe").has_value());
  EXPECT_FALSE(parse_cache_policy("").has_value());
}

TEST(ScenarioKey, DistinguishesParamsAndContext) {
  firelib::Scenario a;
  firelib::Scenario b = a;
  b.wind_speed = a.wind_speed + 1.0;
  EXPECT_EQ(make_scenario_key(a), make_scenario_key(a));
  EXPECT_NE(make_scenario_key(a), make_scenario_key(b));

  ScenarioKey qualified = make_scenario_key(a);
  qualified.context = 7;
  EXPECT_NE(qualified, make_scenario_key(a));
}

TEST(ScenarioKey, NormalizesNegativeZero) {
  firelib::Scenario pos;
  pos.wind_dir = 0.0;
  firelib::Scenario neg = pos;
  neg.wind_dir = -0.0;
  EXPECT_EQ(make_scenario_key(pos), make_scenario_key(neg));
}

TEST(ScenarioKeyHash, SingleBitFlipsAvalanche) {
  // Flipping one input bit should flip about half of the 64 output bits.
  // Loose bounds (a third to two thirds on average) catch a broken mix
  // without being brittle about the exact constant.
  const ScenarioKeyHash hash;
  Rng rng(2026);
  double total_distance = 0.0;
  std::size_t flips = 0;
  for (int trial = 0; trial < 64; ++trial) {
    ScenarioKey base = key_of(rng(), rng());
    for (std::size_t word = 0; word < base.params.size(); ++word)
      base.params[word] = rng();
    const std::uint64_t h0 = hash(base);
    for (int bit = 0; bit < 64; bit += 7) {
      ScenarioKey flipped = base;
      flipped.params[static_cast<std::size_t>(trial) % flipped.params.size()] ^=
          1ULL << bit;
      total_distance +=
          std::popcount(h0 ^ static_cast<std::uint64_t>(hash(flipped)));
      ++flips;
    }
    ScenarioKey context_flipped = base;
    context_flipped.context ^= 1ULL << (trial % 64);
    total_distance +=
        std::popcount(h0 ^ static_cast<std::uint64_t>(hash(context_flipped)));
    ++flips;
  }
  const double mean = total_distance / static_cast<double>(flips);
  EXPECT_GT(mean, 64.0 / 3.0);
  EXPECT_LT(mean, 2.0 * 64.0 / 3.0);
}

TEST(ScenarioKeyHash, NoExcessCollisionsOnStructuredKeys) {
  // Keys differing in a single word (the GA-population shape: one mutated
  // parameter) must not collide measurably.
  const ScenarioKeyHash hash;
  std::unordered_set<std::size_t> seen;
  constexpr std::uint64_t kKeys = 20000;
  for (std::uint64_t i = 0; i < kKeys; ++i)
    seen.insert(hash(key_of(i)));
  EXPECT_GE(seen.size(), kKeys - 1) << "structured keys collide";
}

TEST(CachedScenario, FitnessRecordsKeyedByTargetAndStart) {
  CachedScenario value;
  EXPECT_EQ(value.find_fitness(1, 2), nullptr);
  value.set_fitness(1, 2, 0.5);
  value.set_fitness(9, 2, 0.75);  // same interval start, other target
  ASSERT_NE(value.find_fitness(1, 2), nullptr);
  EXPECT_EQ(*value.find_fitness(1, 2), 0.5);
  EXPECT_EQ(*value.find_fitness(9, 2), 0.75);
  EXPECT_EQ(value.find_fitness(1, 3), nullptr);
  // Existing records win (they are byte-identical by contract).
  value.set_fitness(1, 2, 0.999);
  EXPECT_EQ(*value.find_fitness(1, 2), 0.5);
  EXPECT_EQ(value.fitnesses.size(), 2u);
}

TEST(ScenarioCacheShard, RoundTripsAndMergesLazily) {
  ScenarioCacheShard shard(1 << 20);
  const ScenarioKey key = key_of(1, 42);
  const FitnessQuery query{11, 22};

  EXPECT_EQ(shard.find(key, false, nullptr), nullptr);
  CachedScenario fitness_only;
  fitness_only.set_fitness(query.target_fingerprint, query.start_time_bits,
                           0.25);
  EXPECT_EQ(shard.insert(key, fitness_only, 0.01).evictions, 0u);

  const auto hit = shard.find(key, false, &query);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit->find_fitness(query.target_fingerprint,
                               query.start_time_bits),
            0.25);
  // Needs the map: a record-only entry cannot satisfy it. And a different
  // target's score is neither recorded nor computable without the map.
  EXPECT_EQ(shard.find(key, true, nullptr), nullptr);
  const FitnessQuery other{99, 22};
  EXPECT_EQ(shard.find(key, false, &other), nullptr);

  // A later keep_map miss merges the map in; the record is retained, and
  // the unseen target is now servable through the map.
  EXPECT_FALSE(shard.insert(key, map_value(3.0), 0.01).rejected);
  const auto full = shard.find(key, true, &query);
  ASSERT_NE(full, nullptr);
  EXPECT_EQ(*full->find_fitness(query.target_fingerprint,
                                query.start_time_bits),
            0.25);
  EXPECT_EQ((*full->map)(0, 0), 3.0);
  const auto by_map = shard.find(key, false, &other);
  ASSERT_NE(by_map, nullptr);
  EXPECT_EQ(by_map->find_fitness(other.target_fingerprint,
                                 other.start_time_bits),
            nullptr)
      << "caller re-scores from the map";

  const CacheStats stats = shard.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 3u);
}

TEST(ScenarioCacheShard, AccountsBytesExactly) {
  ScenarioCacheShard shard(1 << 20);
  std::size_t expected_bytes = 0;
  for (std::uint64_t i = 0; i < 10; ++i) {
    const CachedScenario value = map_value(static_cast<double>(i));
    expected_bytes += entry_charge(value);
    shard.insert(key_of(i), value, 0.01);
  }
  const CacheStats stats = shard.stats();
  EXPECT_EQ(stats.entries, 10u);
  EXPECT_EQ(stats.bytes, expected_bytes);

  // Merging a map into a record-only entry grows the accounting by the
  // same charge delta.
  CachedScenario fitness_only;
  fitness_only.set_fitness(1, 2, 0.5);
  shard.insert(key_of(100), fitness_only, 0.01);
  const std::size_t slim = shard.stats().bytes;
  CachedScenario merged = fitness_only;
  merged.map = firelib::IgnitionMap(8, 8, 0.0);
  shard.insert(key_of(100), map_value(0.0), 0.01);
  EXPECT_EQ(shard.stats().bytes,
            slim + entry_charge(merged) - entry_charge(fitness_only));
}

TEST(ScenarioCacheShard, EvictsToStayWithinBudget) {
  // Budget for roughly four map entries; insert forty. The shard must stay
  // within budget at every step and evict the difference.
  const std::size_t per_entry = entry_charge(map_value(0.0));
  ScenarioCacheShard shard(4 * per_entry);
  for (std::uint64_t i = 0; i < 40; ++i) {
    shard.insert(key_of(i), map_value(static_cast<double>(i)), 0.01);
    EXPECT_LE(shard.stats().bytes, shard.max_bytes());
  }
  const CacheStats stats = shard.stats();
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_EQ(stats.evictions, 36u);
  EXPECT_EQ(stats.insertions_rejected, 0u);
  // Survivors still serve correct values (pure function of the key).
  std::size_t live = 0;
  for (std::uint64_t i = 0; i < 40; ++i) {
    const auto hit = shard.find(key_of(i), true, nullptr);
    if (!hit) continue;
    ++live;
    EXPECT_EQ((*hit->map)(0, 0), static_cast<double>(i));
  }
  EXPECT_EQ(live, 4u);
}

TEST(ScenarioCacheShard, RejectsEntriesLargerThanBudget) {
  ScenarioCacheShard shard(256);  // smaller than any 8x8 map entry
  const InsertOutcome outcome = shard.insert(key_of(1), map_value(1.0), 0.01);
  EXPECT_TRUE(outcome.rejected);
  const CacheStats stats = shard.stats();
  EXPECT_EQ(stats.insertions_rejected, 1u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

TEST(ScenarioCacheShard, ProtectedEntriesOutliveProbationChurn) {
  // Segmented LRU: an entry hit twice is promoted and survives a stream of
  // single-use entries that churn the probationary segment.
  const std::size_t per_entry = entry_charge(map_value(0.0));
  ScenarioCacheShard shard(4 * per_entry);
  shard.insert(key_of(7), map_value(7.0), 0.01);
  ASSERT_NE(shard.find(key_of(7), true, nullptr), nullptr);  // promote

  for (std::uint64_t i = 100; i < 140; ++i)
    shard.insert(key_of(i), map_value(static_cast<double>(i)), 0.01);

  const auto hit = shard.find(key_of(7), true, nullptr);
  ASSERT_NE(hit, nullptr) << "protected entry evicted by one-shot churn";
  EXPECT_EQ((*hit->map)(0, 0), 7.0);
}

TEST(ScenarioCacheShard, EvictionPrefersCheapEntries) {
  // Cost-aware victim selection: with equal charges, the entry that was
  // cheap to simulate goes first even when an expensive one is older.
  const std::size_t per_entry = entry_charge(map_value(0.0));
  ScenarioCacheShard shard(2 * per_entry);
  shard.insert(key_of(1), map_value(1.0), /*cost_seconds=*/10.0);  // LRU-oldest
  shard.insert(key_of(2), map_value(2.0), /*cost_seconds=*/0.001);
  // Forces one eviction; plain LRU would drop key 1, cost-aware drops 2.
  shard.insert(key_of(3), map_value(3.0), /*cost_seconds=*/1.0);
  EXPECT_NE(shard.find(key_of(1), true, nullptr), nullptr);
  EXPECT_EQ(shard.find(key_of(2), true, nullptr), nullptr);
  EXPECT_NE(shard.find(key_of(3), true, nullptr), nullptr);
}

TEST(SharedScenarioCache, AggregatesShardsWithinBudget) {
  SharedScenarioCache cache(std::size_t{1} << 20, 4);
  EXPECT_EQ(cache.max_bytes(), std::size_t{1} << 20);
  Rng rng(9);
  for (std::uint64_t i = 0; i < 200; ++i)
    cache.insert(key_of(rng(), i), map_value(1.0), 0.01);
  const CacheStats stats = cache.stats();
  EXPECT_GT(stats.entries, 0u);
  EXPECT_LE(stats.bytes, cache.max_bytes());
}

TEST(SharedScenarioCache, TinyBudgetsCollapseToFewerShards) {
  // 64 KiB over 8 shards would leave unusable 8 KiB slices; the cache
  // collapses shards so the slices stay useful and still sum <= budget.
  SharedScenarioCache tiny(std::size_t{64} << 10, 8);
  EXPECT_EQ(tiny.shard_count(), 1u);
  SharedScenarioCache wide(std::size_t{16} << 20, 8);
  EXPECT_EQ(wide.shard_count(), 8u);
  EXPECT_THROW(SharedScenarioCache(0), InvalidArgument);
}

TEST(SharedScenarioCache, ConcurrentMixedTrafficStaysConsistent) {
  // Four threads hammer one small cache with overlapping keys. The values
  // are a pure function of the key, so every successful lookup must return
  // the key's value, and the byte budget must hold afterward.
  SharedScenarioCache cache(std::size_t{256} << 10, 4);
  constexpr std::uint64_t kKeys = 64;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int round = 0; round < 2000; ++round) {
        const std::uint64_t id = rng() % kKeys;
        const auto hit = cache.find(key_of(id), true, nullptr);
        if (hit) {
          if ((*hit->map)(0, 0) != static_cast<double>(id)) std::abort();
        } else {
          cache.insert(key_of(id), map_value(static_cast<double>(id)),
                       0.001 * static_cast<double>(id + 1));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const CacheStats stats = cache.stats();
  EXPECT_LE(stats.bytes, cache.max_bytes());
  EXPECT_GT(stats.hits, 0u);
  for (std::uint64_t id = 0; id < kKeys; ++id) {
    const auto hit = cache.find(key_of(id), true, nullptr);
    if (hit) {
      EXPECT_EQ((*hit->map)(0, 0), static_cast<double>(id));
    }
  }
}

}  // namespace
}  // namespace essns::cache
