// SharedScenarioCache persistence: serialize the live entries to a
// versioned, CRC-checked binary snapshot and restore them into a (possibly
// differently-budgeted) cache on the next start — the `--cache-save` /
// `--cache-load` seam that lets a prediction server restart warm.
//
// Format (little-endian, common/binary_io.hpp):
//
//   u32 magic      kCacheFileMagic ("CSSE")
//   u32 version    kCacheFileVersion; any other value is rejected
//   frame*         each:
//     u32 type     kEntryFrame | kEndFrame
//     u64 length   payload bytes (<= kMaxCachePayload, so a flipped length
//                  bit cannot demand gigabytes)
//     bytes        payload
//     u32 crc      CRC-32 of the payload
//
// kEntryFrame payload: the ScenarioKey (context + 9 param words), the
// accumulated cost_seconds, the optional burned-cell record (has-flag u8,
// i32 rows/cols, then ceil(rows*cols/64) u64 words; bits past the last cell
// must be zero) and the fitness records. kEndFrame carries the entry count
// and must be the final frame — truncation anywhere (mid-frame OR between
// frames) is detected. Older snapshots are rejected with a version-mismatch
// WireError: version 1 held f64 ignition maps, and version 2 held burned
// cells of simulations that started from the truth's arrival times inside
// each fire line. Since version 3 a simulation starts from the line's
// burned cells at its instant, under keys that also carry that instant; a
// version-2 entry would otherwise be served as a hit with an answer the
// current code does not compute.
//
// Save and restore both stream frame by frame, so their memory is bounded
// by one frame, not by the file.
//
// Restore goes through SharedScenarioCache::insert(), so every entry is
// re-accounted against the receiving cache's byte budget: a snapshot from a
// 1 GiB cache loaded into a 64 MiB one evicts/rejects down to the smaller
// budget exactly as live inserts would. Any malformed input — truncation,
// bit flips, bad magic, unknown version, a length overrun — throws
// WireError and leaves the cache with whatever entries were restored before
// the corruption point (each of which was itself CRC-verified).
//
// Determinism: restored values are byte-exact copies, so results computed
// against a restored cache are bit-identical to a cold recomputation — the
// same contract the shared cache already honors, property-tested in
// tests/cache/test_cache_io.cpp.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "cache/scenario_cache.hpp"

namespace essns::cache {

inline constexpr std::uint32_t kCacheFileMagic = 0x45535343u;  // "CSSE" LE
inline constexpr std::uint32_t kCacheFileVersion = 3;
inline constexpr std::uint32_t kEntryFrame = 1;
inline constexpr std::uint32_t kEndFrame = 2;
/// Per-frame payload bound: one entry (key + one burned-cell record +
/// fitnesses); 1 GiB covers grids far beyond any catalog, and a corrupted
/// length can claim no more than the stream actually holds (payloads are
/// read in chunks as they arrive).
inline constexpr std::uint64_t kMaxCachePayload = std::uint64_t{1} << 30;

/// What load_cache() did with the snapshot.
struct RestoreStats {
  std::size_t entries_in_file = 0;  ///< entry frames decoded
  std::size_t restored = 0;         ///< inserted and retained (not rejected)
  std::size_t evictions = 0;        ///< evictions the inserts caused
  std::size_t rejected = 0;         ///< entries larger than a shard budget
};

/// Serialize every live entry. Returns the entry count. Throws IoError when
/// the stream/file cannot be written. The path overload writes `path.tmp`
/// and renames it over `path` only once it is complete, so a failed save
/// leaves the previous snapshot untouched.
std::size_t save_cache(const SharedScenarioCache& cache, std::ostream& out);
std::size_t save_cache(const SharedScenarioCache& cache,
                       const std::string& path);

/// Restore a snapshot through insert() (budget re-accounting included).
/// Throws WireError on any malformed input, IoError when the file cannot be
/// opened.
RestoreStats load_cache(SharedScenarioCache& cache, std::istream& in);
RestoreStats load_cache(SharedScenarioCache& cache, const std::string& path);

}  // namespace essns::cache
