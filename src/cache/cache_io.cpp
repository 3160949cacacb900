#include "cache/cache_io.hpp"

#include <fstream>
#include <iterator>
#include <string>

#include "common/binary_io.hpp"
#include "common/error.hpp"

namespace essns::cache {
namespace {

// Dimension cap for decoded maps: far beyond any catalog, and cells are
// re-checked against the remaining payload before the slab is allocated.
constexpr std::int32_t kMaxGridDim = 1 << 20;

void encode_entry(BinaryWriter& out, const ExportedEntry& entry) {
  out.u64(entry.key.context);
  for (std::uint64_t param : entry.key.params) out.u64(param);
  out.f64(entry.cost_seconds);
  const CachedScenario& value = *entry.value;
  out.u8(value.map.has_value() ? 1 : 0);
  if (value.map.has_value()) {
    out.i32(value.map->rows());
    out.i32(value.map->cols());
    for (const double cell : *value.map) out.f64(cell);
  }
  out.u64(value.fitnesses.size());
  for (const FitnessRecord& record : value.fitnesses) {
    out.u64(record.target_fingerprint);
    out.u64(record.start_time_bits);
    out.f64(record.fitness);
  }
}

// Decoded (key, value, cost) triple; the value is freshly owned.
struct DecodedEntry {
  ScenarioKey key;
  CachedScenario value;
  double cost_seconds = 0.0;
};

DecodedEntry decode_entry(BinaryReader& in) {
  DecodedEntry entry;
  entry.key.context = in.u64();
  for (std::uint64_t& param : entry.key.params) param = in.u64();
  entry.cost_seconds = in.f64();
  if (in.u8() != 0) {
    const std::int32_t rows = in.i32();
    const std::int32_t cols = in.i32();
    if (rows <= 0 || cols <= 0 || rows > kMaxGridDim || cols > kMaxGridDim)
      throw WireError("cache entry map dimensions out of range");
    const std::uint64_t cells =
        static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols);
    in.need(cells * sizeof(double), "cache entry map cells");
    firelib::IgnitionMap map(rows, cols);
    for (double& cell : map) cell = in.f64();
    entry.value.map = std::move(map);
  }
  const std::uint64_t fitness_count = in.u64();
  in.need(fitness_count * 24, "cache entry fitness records");
  entry.value.fitnesses.reserve(static_cast<std::size_t>(fitness_count));
  for (std::uint64_t i = 0; i < fitness_count; ++i) {
    FitnessRecord record;
    record.target_fingerprint = in.u64();
    record.start_time_bits = in.u64();
    record.fitness = in.f64();
    entry.value.fitnesses.push_back(record);
  }
  return entry;
}

void write_frame(std::vector<std::uint8_t>& out, std::uint32_t type,
                 const std::vector<std::uint8_t>& payload) {
  ESSNS_REQUIRE(payload.size() <= kMaxCachePayload,
                "cache frame payload too large");
  BinaryWriter writer(out);
  writer.u32(type);
  writer.u64(payload.size());
  if (!payload.empty()) writer.bytes(payload.data(), payload.size());
  writer.u32(Crc32::of(payload));
}

}  // namespace

std::size_t save_cache(const SharedScenarioCache& cache, std::ostream& out) {
  const std::vector<ExportedEntry> entries = cache.export_entries();

  std::vector<std::uint8_t> buffer;
  {
    BinaryWriter header(buffer);
    header.u32(kCacheFileMagic);
    header.u32(kCacheFileVersion);
  }
  std::vector<std::uint8_t> payload;
  for (const ExportedEntry& entry : entries) {
    payload.clear();
    BinaryWriter writer(payload);
    encode_entry(writer, entry);
    write_frame(buffer, kEntryFrame, payload);
  }
  payload.clear();
  {
    BinaryWriter writer(payload);
    writer.u64(entries.size());
  }
  write_frame(buffer, kEndFrame, payload);

  out.write(reinterpret_cast<const char*>(buffer.data()),
            static_cast<std::streamsize>(buffer.size()));
  if (!out) throw IoError("cannot write cache snapshot stream");
  return entries.size();
}

std::size_t save_cache(const SharedScenarioCache& cache,
                       const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("cannot open cache snapshot for writing: " + path);
  const std::size_t count = save_cache(cache, out);
  out.flush();
  if (!out) throw IoError("cannot write cache snapshot: " + path);
  return count;
}

RestoreStats load_cache(SharedScenarioCache& cache, std::istream& in) {
  const std::vector<std::uint8_t> data(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  BinaryReader reader(data);

  if (reader.remaining() < 8)
    throw WireError("cache snapshot truncated before the header");
  if (reader.u32() != kCacheFileMagic)
    throw WireError("bad cache snapshot magic");
  const std::uint32_t version = reader.u32();
  if (version != kCacheFileVersion)
    throw WireError("cache snapshot version mismatch: got " +
                    std::to_string(version) + ", expected " +
                    std::to_string(kCacheFileVersion));

  RestoreStats stats;
  bool saw_end = false;
  while (!saw_end) {
    if (reader.done())
      throw WireError("cache snapshot truncated: missing end frame");
    const std::uint32_t type = reader.u32();
    const std::uint64_t length = reader.u64();
    if (length > kMaxCachePayload)
      throw WireError("cache frame length out of range");
    reader.need(length, "cache frame payload");
    std::vector<std::uint8_t> payload(static_cast<std::size_t>(length));
    if (length > 0) reader.bytes(payload.data(), payload.size());
    const std::uint32_t expected_crc = reader.u32();
    if (Crc32::of(payload) != expected_crc)
      throw WireError("cache frame CRC mismatch");

    BinaryReader body(payload);
    switch (type) {
      case kEntryFrame: {
        DecodedEntry entry = decode_entry(body);
        if (!body.done())
          throw WireError("trailing bytes in cache entry frame");
        ++stats.entries_in_file;
        const InsertOutcome outcome = cache.insert(
            entry.key, std::move(entry.value), entry.cost_seconds);
        stats.evictions += outcome.evictions;
        if (outcome.rejected)
          ++stats.rejected;
        else
          ++stats.restored;
        break;
      }
      case kEndFrame: {
        const std::uint64_t declared = body.u64();
        if (!body.done()) throw WireError("trailing bytes in cache end frame");
        if (declared != stats.entries_in_file)
          throw WireError("cache snapshot entry count mismatch: header says " +
                          std::to_string(declared) + ", decoded " +
                          std::to_string(stats.entries_in_file));
        saw_end = true;
        break;
      }
      default:
        throw WireError("unknown cache frame type " + std::to_string(type));
    }
  }
  if (!reader.done())
    throw WireError("trailing bytes after cache snapshot end frame");
  return stats;
}

RestoreStats load_cache(SharedScenarioCache& cache, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open cache snapshot: " + path);
  return load_cache(cache, in);
}

}  // namespace essns::cache
