#include "cache/cache_io.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>

#include "common/binary_io.hpp"
#include "common/error.hpp"

namespace essns::cache {
namespace {

// Dimension cap for decoded records: far beyond any catalog, and the words
// are re-checked against the remaining payload before they are allocated.
constexpr std::int32_t kMaxGridDim = 1 << 20;

void write_bytes(std::ostream& out, const std::vector<std::uint8_t>& bytes) {
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw IoError("cannot write cache snapshot stream");
}

void encode_entry(BinaryWriter& out, const ExportedEntry& entry) {
  out.u64(entry.key.context);
  for (std::uint64_t param : entry.key.params) out.u64(param);
  out.f64(entry.cost_seconds);
  const CachedScenario& value = *entry.value;
  out.u8(value.burned.empty() ? 0 : 1);
  if (!value.burned.empty()) {
    out.i32(value.burned.rows);
    out.i32(value.burned.cols);
    for (const std::uint64_t word : value.burned.words) out.u64(word);
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
      throw WireError("cache entry grid dimensions out of range");
    const std::uint64_t cells =
        static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols);
    const std::size_t words = firelib::burned_words(cells);
    in.need(words * sizeof(std::uint64_t), "cache entry burned cells");
    firelib::BurnedCells& burned = entry.value.burned;
    burned.rows = rows;
    burned.cols = cols;
    burned.words.resize(words);
    for (std::uint64_t& word : burned.words) word = in.u64();
    // Readers index cells by set bits; one past the grid would be out of
    // bounds, so padding bits must be clear.
    if (cells % 64 != 0 && (burned.words.back() >> (cells % 64)) != 0)
      throw WireError("cache entry burned cells set past the grid");
  }
  const std::uint64_t fitness_count = in.u64();
  if (fitness_count > in.remaining() / 24)
    throw WireError("binary stream truncated reading cache entry fitness "
                    "records");
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

/// Write one frame (type, length, payload, CRC) to `out`, assembling it in
/// `frame`, a buffer reused across frames.
void write_frame(std::ostream& out, std::vector<std::uint8_t>& frame,
                 std::uint32_t type, const std::vector<std::uint8_t>& payload) {
  ESSNS_REQUIRE(payload.size() <= kMaxCachePayload,
                "cache frame payload too large");
  frame.clear();
  BinaryWriter writer(frame);
  writer.u32(type);
  writer.u64(payload.size());
  if (!payload.empty()) writer.bytes(payload.data(), payload.size());
  writer.u32(Crc32::of(payload));
  write_bytes(out, frame);
}

/// Read up to `size` bytes from `in` into `out` (replacing its contents);
/// returns how many arrived. The buffer grows a chunk at a time as bytes
/// arrive, so a corrupted length on a short stream costs no more memory
/// than the stream holds.
std::size_t read_up_to(std::istream& in, std::vector<std::uint8_t>& out,
                       std::uint64_t size) {
  constexpr std::uint64_t kChunk = std::uint64_t{1} << 20;
  out.clear();
  while (out.size() < size && in) {
    const std::size_t at = out.size();
    out.resize(at + std::min(kChunk, size - at));
    in.read(reinterpret_cast<char*>(out.data() + at),
            static_cast<std::streamsize>(out.size() - at));
    out.resize(at + static_cast<std::size_t>(in.gcount()));
  }
  return out.size();
}

}  // namespace

std::size_t save_cache(const SharedScenarioCache& cache, std::ostream& out) {
  const std::vector<ExportedEntry> entries = cache.export_entries();

  // Streamed frame by frame: memory is bounded by one entry, not the file.
  std::vector<std::uint8_t> frame;
  {
    BinaryWriter header(frame);
    header.u32(kCacheFileMagic);
    header.u32(kCacheFileVersion);
  }
  write_bytes(out, frame);
  std::vector<std::uint8_t> payload;
  for (const ExportedEntry& entry : entries) {
    payload.clear();
    BinaryWriter writer(payload);
    encode_entry(writer, entry);
    write_frame(out, frame, kEntryFrame, payload);
  }
  payload.clear();
  {
    BinaryWriter writer(payload);
    writer.u64(entries.size());
  }
  write_frame(out, frame, kEndFrame, payload);
  return entries.size();
}

std::size_t save_cache(const SharedScenarioCache& cache,
                       const std::string& path) {
  // Write a sibling temp file and rename it over the target only once it is
  // complete, so a crash or a full disk mid-save leaves the old snapshot.
  const std::string temp = path + ".tmp";
  std::ofstream out(temp, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("cannot open cache snapshot for writing: " + temp);
  std::size_t count = 0;
  try {
    count = save_cache(cache, out);
    out.close();
    if (!out) throw IoError("cannot write cache snapshot: " + temp);
  } catch (...) {
    out.close();
    std::remove(temp.c_str());
    throw;
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    throw IoError("cannot replace cache snapshot: " + path);
  }
  return count;
}

RestoreStats load_cache(SharedScenarioCache& cache, std::istream& in) {
  std::vector<std::uint8_t> head;
  if (read_up_to(in, head, 8) < 8)
    throw WireError("cache snapshot truncated before the header");
  BinaryReader header(head);
  if (header.u32() != kCacheFileMagic)
    throw WireError("bad cache snapshot magic");
  const std::uint32_t version = header.u32();
  if (version != kCacheFileVersion)
    throw WireError("cache snapshot version mismatch: got " +
                    std::to_string(version) + ", expected " +
                    std::to_string(kCacheFileVersion));

  RestoreStats stats;
  std::vector<std::uint8_t> payload;
  bool saw_end = false;
  while (!saw_end) {
    const std::size_t got = read_up_to(in, head, 12);
    if (got == 0)
      throw WireError("cache snapshot truncated: missing end frame");
    if (got < 12) throw WireError("cache snapshot truncated in a frame header");
    BinaryReader frame(head);
    const std::uint32_t type = frame.u32();
    const std::uint64_t length = frame.u64();
    if (length > kMaxCachePayload)
      throw WireError("cache frame length out of range");
    if (read_up_to(in, payload, length) < length)
      throw WireError("cache snapshot truncated in a frame payload");
    if (read_up_to(in, head, 4) < 4)
      throw WireError("cache snapshot truncated before a frame CRC");
    if (Crc32::of(payload) != BinaryReader(head).u32())
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
  if (in.peek() != std::istream::traits_type::eof())
    throw WireError("trailing bytes after cache snapshot end frame");
  return stats;
}

RestoreStats load_cache(SharedScenarioCache& cache, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open cache snapshot: " + path);
  return load_cache(cache, in);
}

}  // namespace essns::cache
