#include "cache/cache_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <unistd.h>
#include <vector>

#include "common/binary_io.hpp"
#include "common/error.hpp"
#include "firelib/propagator.hpp"
#include "service/campaign.hpp"
#include "synth/catalog.hpp"

namespace essns::cache {
namespace {

/// Synthetic but structurally complete entries: distinct keys, burned cells
/// on most of them, a mix of fitness-record counts, distinct costs.
void fill_cache(SharedScenarioCache& cache, std::size_t entries,
                int edge = 5) {
  for (std::size_t i = 0; i < entries; ++i) {
    ScenarioKey key;
    key.context = 0x1000 + i;
    for (std::size_t p = 0; p < key.params.size(); ++p)
      key.params[p] = i * 131 + p;

    CachedScenario value;
    if (i % 4 != 3) {  // leave some entries fitness-only
      const auto cells = static_cast<std::size_t>(edge) * edge;
      value.burned = {edge, edge,
                      std::vector<std::uint64_t>(firelib::burned_words(cells))};
      for (std::size_t c = 0; c < cells; ++c)
        if ((c + i) % 3 == 0)
          value.burned.words[c / 64] |= std::uint64_t{1} << (c % 64);
    }
    for (std::size_t f = 0; f < i % 3; ++f) {
      FitnessRecord record;
      record.target_fingerprint = 0xbeef00 + i;
      record.start_time_bits = f;
      record.fitness = 0.5 + static_cast<double>(f);
      value.fitnesses.push_back(record);
    }
    cache.insert(key, std::move(value), 0.001 * static_cast<double>(i + 1));
  }
}

std::string serialize(const SharedScenarioCache& cache) {
  std::ostringstream out(std::ios::binary);
  save_cache(cache, out);
  return out.str();
}

RestoreStats deserialize(SharedScenarioCache& cache, const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  return load_cache(cache, in);
}

TEST(CacheIo, RoundTripIsByteExact) {
  SharedScenarioCache original(8 << 20);
  fill_cache(original, 13);
  const std::string snapshot = serialize(original);

  SharedScenarioCache restored(8 << 20);
  const RestoreStats stats = deserialize(restored, snapshot);
  EXPECT_EQ(stats.entries_in_file, 13u);
  EXPECT_EQ(stats.restored, 13u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(restored.stats().entries, original.stats().entries);
  EXPECT_EQ(restored.stats().bytes, original.stats().bytes);

  // Strongest equality: re-serializing the restored cache reproduces the
  // snapshot byte for byte (same shard assignment, same recency order, same
  // burned cells, costs and fitness records).
  EXPECT_EQ(serialize(restored), snapshot);
}

/// The whole snapshot assembled in one buffer, as the format header lays it
/// out: the oracle the streaming writer must reproduce byte for byte.
std::string buffered_encoding(const SharedScenarioCache& cache) {
  std::vector<std::uint8_t> bytes;
  BinaryWriter out(bytes);
  out.u32(kCacheFileMagic);
  out.u32(kCacheFileVersion);
  const auto frame = [&](std::uint32_t type,
                         const std::vector<std::uint8_t>& payload) {
    out.u32(type);
    out.u64(payload.size());
    out.bytes(payload.data(), payload.size());
    out.u32(Crc32::of(payload));
  };
  const std::vector<ExportedEntry> entries = cache.export_entries();
  for (const ExportedEntry& entry : entries) {
    std::vector<std::uint8_t> payload;
    BinaryWriter body(payload);
    body.u64(entry.key.context);
    for (const std::uint64_t param : entry.key.params) body.u64(param);
    body.f64(entry.cost_seconds);
    const CachedScenario& value = *entry.value;
    body.u8(value.burned.empty() ? 0 : 1);
    if (!value.burned.empty()) {
      body.i32(value.burned.rows);
      body.i32(value.burned.cols);
      for (const std::uint64_t word : value.burned.words) body.u64(word);
    }
    body.u64(value.fitnesses.size());
    for (const FitnessRecord& record : value.fitnesses) {
      body.u64(record.target_fingerprint);
      body.u64(record.start_time_bits);
      body.f64(record.fitness);
    }
    frame(kEntryFrame, payload);
  }
  std::vector<std::uint8_t> end;
  BinaryWriter(end).u64(entries.size());
  frame(kEndFrame, end);
  return {bytes.begin(), bytes.end()};
}

TEST(CacheIo, StreamedSaveEqualsTheBufferedEncoding) {
  for (const std::size_t entries : {std::size_t{0}, std::size_t{1},
                                    std::size_t{37}}) {
    SCOPED_TRACE(entries);
    SharedScenarioCache cache(std::size_t{1} << 20);
    fill_cache(cache, entries, 9);
    EXPECT_EQ(serialize(cache), buffered_encoding(cache));
  }
}

TEST(CacheIo, EmptyCacheRoundTrips) {
  SharedScenarioCache original(1 << 20);
  const std::string snapshot = serialize(original);
  SharedScenarioCache restored(1 << 20);
  const RestoreStats stats = deserialize(restored, snapshot);
  EXPECT_EQ(stats.entries_in_file, 0u);
  EXPECT_EQ(restored.stats().entries, 0u);
}

TEST(CacheIo, RestoreReAccountsAgainstSmallerBudget) {
  SharedScenarioCache big(64 << 20);
  fill_cache(big, 64, /*edge=*/96);  // ~1.4 KiB per entry
  const std::size_t saved_entries = big.stats().entries;
  ASSERT_EQ(saved_entries, 64u);
  const std::string snapshot = serialize(big);

  // A budget far below the snapshot's total bytes: restore must evict or
  // reject down to the smaller budget, never exceed it.
  const std::size_t small_budget = big.stats().bytes / 4;
  SharedScenarioCache small(small_budget);
  const RestoreStats stats = deserialize(small, snapshot);
  EXPECT_EQ(stats.entries_in_file, saved_entries);
  EXPECT_EQ(stats.restored + stats.rejected, saved_entries);
  EXPECT_GT(stats.evictions + stats.rejected, 0u)
      << "a 4x smaller budget must push something out";
  EXPECT_LE(small.stats().bytes, small_budget);
  EXPECT_LT(small.stats().entries, saved_entries);
}

TEST(CacheIo, EveryTruncationIsRejected) {
  SharedScenarioCache original(1 << 20);
  fill_cache(original, 3);
  const std::string snapshot = serialize(original);
  ASSERT_GT(snapshot.size(), 8u);

  for (std::size_t len = 0; len < snapshot.size(); ++len) {
    SharedScenarioCache target(1 << 20);
    EXPECT_THROW(deserialize(target, snapshot.substr(0, len)), WireError)
        << "truncation to " << len << " bytes must not load";
  }
  // And the untruncated snapshot still loads.
  SharedScenarioCache target(1 << 20);
  EXPECT_EQ(deserialize(target, snapshot).restored, 3u);
}

TEST(CacheIo, EverySingleBitFlipIsRejected) {
  SharedScenarioCache original(1 << 20);
  fill_cache(original, 2);
  const std::string snapshot = serialize(original);

  for (std::size_t offset = 0; offset < snapshot.size(); ++offset) {
    for (int bit = 0; bit < 8; bit += 7) {  // lowest and highest bit
      std::string corrupted = snapshot;
      corrupted[offset] = static_cast<char>(
          static_cast<unsigned char>(corrupted[offset]) ^ (1u << bit));
      SharedScenarioCache target(1 << 20);
      EXPECT_THROW(deserialize(target, corrupted), WireError)
          << "bit " << bit << " of byte " << offset
          << " flipped must not load";
    }
  }
}

TEST(CacheIo, TrailingGarbageAfterEndFrameIsRejected) {
  SharedScenarioCache original(1 << 20);
  fill_cache(original, 2);
  std::string snapshot = serialize(original);
  snapshot += '\0';
  SharedScenarioCache target(1 << 20);
  EXPECT_THROW(deserialize(target, snapshot), WireError);
}

/// An entry payload up to its record's shape: key, cost, "record present"
/// and rows x cols. Callers append the record and the fitness count.
std::vector<std::uint8_t> entry_head(std::int32_t rows, std::int32_t cols) {
  std::vector<std::uint8_t> payload;
  BinaryWriter entry(payload);
  entry.u64(0x1000);  // key.context
  for (std::size_t p = 0; p < ScenarioKey{}.params.size(); ++p) entry.u64(p);
  entry.f64(0.01);  // cost_seconds
  entry.u8(1);      // record present
  entry.i32(rows);
  entry.i32(cols);
  return payload;
}

/// A snapshot of `version` holding one CRC-valid entry frame with `payload`
/// and the end frame.
std::string snapshot_of(std::uint32_t version,
                        const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> end;
  BinaryWriter(end).u64(1);
  std::vector<std::uint8_t> bytes;
  BinaryWriter out(bytes);
  out.u32(kCacheFileMagic);
  out.u32(version);
  const std::pair<std::uint32_t, const std::vector<std::uint8_t>*> frames[] =
      {{kEntryFrame, &payload}, {kEndFrame, &end}};
  for (const auto& [type, body] : frames) {
    out.u32(type);
    out.u64(body->size());
    out.bytes(body->data(), body->size());
    out.u32(Crc32::of(*body));
  }
  return {bytes.begin(), bytes.end()};
}

TEST(CacheIo, OversizedGridDimensionsRejectedBeforeAllocation) {
  // A CRC-valid entry frame whose record claims 2^30 x 2^30 cells (or a
  // negative edge): the decoder must throw on the dimensions, not try to
  // allocate exabytes.
  for (const std::int32_t edge : {std::int32_t{1} << 30, std::int32_t{-1}}) {
    SharedScenarioCache target(1 << 20);
    EXPECT_THROW(
        deserialize(target, snapshot_of(kCacheFileVersion,
                                         entry_head(edge, edge))),
        WireError)
        << edge;
    EXPECT_EQ(target.stats().entries, 0u);
  }
}

TEST(CacheIo, VersionOneSnapshotRejectedWithVersionMismatch) {
  // Version 1 stored f64 ignition maps, which cannot be read as burned-cell
  // records: the whole snapshot is refused up front, by version.
  std::vector<std::uint8_t> v1_entry = entry_head(2, 2);
  BinaryWriter entry(v1_entry);
  for (int c = 0; c < 4; ++c) entry.f64(1.5 * c);  // the map's cells
  entry.u64(0);                                    // no fitness records

  SharedScenarioCache target(1 << 20);
  try {
    deserialize(target, snapshot_of(1, v1_entry));
    FAIL() << "a version-1 snapshot loaded";
  } catch (const WireError& error) {
    EXPECT_NE(std::string(error.what()).find("version mismatch"),
              std::string::npos)
        << error.what();
  }
  EXPECT_EQ(target.stats().entries, 0u);
}

TEST(CacheIo, VersionTwoSnapshotRejectedWithVersionMismatch) {
  // Version 2 has this layout, but its burned cells came from simulations
  // that started from the truth's arrival times: served as hits, they would
  // answer with results the current code does not compute.
  std::vector<std::uint8_t> v2_entry = entry_head(2, 2);
  BinaryWriter entry(v2_entry);
  entry.u64(0b1011);  // the record's one word
  entry.u64(0);       // no fitness records

  SharedScenarioCache target(1 << 20);
  try {
    deserialize(target, snapshot_of(2, v2_entry));
    FAIL() << "a version-2 snapshot loaded";
  } catch (const WireError& error) {
    EXPECT_NE(std::string(error.what()).find("version mismatch"),
              std::string::npos)
        << error.what();
  }
  EXPECT_EQ(target.stats().entries, 0u);
  // The same frames under the current version restore.
  EXPECT_EQ(deserialize(target, snapshot_of(kCacheFileVersion, v2_entry))
                .restored,
            1u);
}

TEST(CacheIo, BurnedCellsPastTheGridRejected) {
  // 3x7 = 21 cells in one word: bit 20 is the last cell, bit 21 lies past
  // the grid, where a reader indexing cells by set bits would overrun.
  for (const int bit : {20, 21}) {
    std::vector<std::uint8_t> payload = entry_head(3, 7);
    BinaryWriter entry(payload);
    entry.u64(std::uint64_t{1} << bit);
    entry.u64(0);  // no fitness records
    SharedScenarioCache target(1 << 20);
    const std::string snapshot = snapshot_of(kCacheFileVersion, payload);
    if (bit == 20) {
      EXPECT_EQ(deserialize(target, snapshot).restored, 1u);
    } else {
      EXPECT_THROW(deserialize(target, snapshot), WireError);
      EXPECT_EQ(target.stats().entries, 0u);
    }
  }
}

TEST(CacheIo, MissingFileThrowsIoError) {
  SharedScenarioCache target(1 << 20);
  EXPECT_THROW(load_cache(target, "/nonexistent/cache.snapshot"), IoError);
}

/// A scratch directory private to this test process, removed with it.
struct ScratchDir {
  ScratchDir()
      : path(std::filesystem::temp_directory_path() /
             ("essns_cache_io_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() { std::filesystem::remove_all(path); }
  std::filesystem::path path;
};

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(CacheIo, FailedSaveLeavesTheOldSnapshotIntact) {
  const ScratchDir dir;
  const std::string path = (dir.path / "cache.snapshot").string();
  SharedScenarioCache old_cache(1 << 20);
  fill_cache(old_cache, 6);
  ASSERT_EQ(save_cache(old_cache, path), 6u);
  const std::string before = file_bytes(path);
  ASSERT_FALSE(before.empty());

  // The temp file cannot be created: a directory sits at its name.
  std::filesystem::create_directory(path + ".tmp");
  SharedScenarioCache new_cache(1 << 20);
  fill_cache(new_cache, 9, 7);
  EXPECT_THROW(save_cache(new_cache, path), IoError);
  EXPECT_EQ(file_bytes(path), before);
  EXPECT_TRUE(std::filesystem::is_directory(path + ".tmp"));
}

TEST(CacheIo, SaveLeavesNoTempFileBehind) {
  const ScratchDir dir;
  const std::string path = (dir.path / "cache.snapshot").string();
  SharedScenarioCache cache(1 << 20);
  fill_cache(cache, 5);
  for (int round = 0; round < 2; ++round) {  // create, then replace
    ASSERT_EQ(save_cache(cache, path), 5u);
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    EXPECT_EQ(file_bytes(path), serialize(cache));
  }
}

// ---------------------------------------------------------------------------
// The property the snapshot exists for: a campaign rerun against a RESTORED
// cache runs entirely warm and produces bit-identical results.
// ---------------------------------------------------------------------------

TEST(CacheIo, RestoredCacheServesCampaignWarmAndBitIdentical) {
  synth::CatalogSpec catalog;
  catalog.terrains = {synth::TerrainFamily::kPlains};
  catalog.sizes = {16};
  catalog.weather = {synth::WeatherRegime::kSteady};
  catalog.ignitions = {synth::IgnitionPattern::kCenter,
                       synth::IgnitionPattern::kOffset};
  catalog.steps = 3;
  catalog.base_seed = 11;
  const auto workloads = synth::generate_catalog(catalog);

  service::CampaignConfig config;
  config.spec.generations = 3;
  config.spec.population = 8;
  config.spec.offspring = 8;
  config.seed = 77;
  config.spec.cache_policy = CachePolicy::kShared;

  config.engine.shared_cache = std::make_shared<SharedScenarioCache>();
  const service::CampaignResult cold =
      service::CampaignScheduler(config).run(workloads);
  ASSERT_EQ(cold.succeeded(), workloads.size());
  const std::string snapshot = serialize(*config.engine.shared_cache);

  // "Restart": a brand-new cache, warmed only from the snapshot bytes.
  config.engine.shared_cache = std::make_shared<SharedScenarioCache>();
  const RestoreStats restored = deserialize(*config.engine.shared_cache, snapshot);
  EXPECT_GT(restored.restored, 0u);
  EXPECT_EQ(restored.rejected, 0u);

  const std::size_t misses_before = config.engine.shared_cache->stats().misses;
  const service::CampaignResult warm =
      service::CampaignScheduler(config).run(workloads);
  ASSERT_EQ(warm.succeeded(), workloads.size());

  const CacheStats after = config.engine.shared_cache->stats();
  EXPECT_EQ(after.misses, misses_before)
      << "a restored cache must serve the identical campaign without a "
         "single recomputation";
  EXPECT_GT(after.hits, 0u);

  ASSERT_EQ(cold.jobs.size(), warm.jobs.size());
  for (std::size_t i = 0; i < cold.jobs.size(); ++i) {
    const service::JobRecord& a = cold.jobs[i];
    const service::JobRecord& b = warm.jobs[i];
    EXPECT_EQ(a.seed, b.seed);
    ASSERT_EQ(a.result.steps.size(), b.result.steps.size());
    for (std::size_t s = 0; s < a.result.steps.size(); ++s) {
      EXPECT_EQ(a.result.steps[s].kign, b.result.steps[s].kign);
      EXPECT_EQ(a.result.steps[s].calibration_fitness,
                b.result.steps[s].calibration_fitness);
      EXPECT_EQ(a.result.steps[s].prediction_quality,
                b.result.steps[s].prediction_quality);
    }
  }
}

}  // namespace
}  // namespace essns::cache
