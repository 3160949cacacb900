// Shared scenario-result cache: cross-step, cross-job memoization of fire
// simulations with explicit memory bounds.
//
// The prediction loop re-simulates near-identical scenarios step after step
// (GA/DE populations carry duplicates and elites), and a campaign runs many
// such loops concurrently. SimulationService's original cache was scoped to
// one (start, target, interval) context and wiped on every context change;
// this layer lifts memoization out of the service into a sharded,
// concurrency-safe cache keyed by a *context-qualified* ScenarioKey, so
// entries survive context changes and are shared by every pipeline that
// holds the same SharedScenarioCache.
//
// Determinism: a cached map is a byte-exact pure function of its key
// (scenario parameter bits + fingerprints of the start map and end time),
// and every cached fitness is a pure function of (map, target fingerprint,
// interval start) — so the hit/miss pattern may vary across thread
// interleavings but every value served is identical to a recompute:
// results are bit-identical to running with the cache off.
//
// Memory: every entry is charged by the bytes it actually stores (dominated
// by the ignition map) against a fixed byte budget, split evenly over the
// shards. Eviction is segmented-LRU-style with cost-aware victim selection:
// entries hit at least twice live in a protected segment, and the victim is
// the probationary tail entry with the least observed simulation cost per
// stored byte — cheap-to-recompute bulky maps go first, expensive sweeps
// stay.
#pragma once

#include <array>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "firelib/environment.hpp"
#include "firelib/propagator.hpp"
#include "firelib/scenario.hpp"

namespace essns::cache {

/// How SimulationService memoizes simulations.
///   kOff    no memoization; every request simulates.
///   kStep   the pre-shared-cache behavior, bit-for-bit: a private cache
///           scoped to one (start, target, interval) context, wiped on
///           context change, unbounded but for a capacity backstop.
///   kShared a SharedScenarioCache that outlives contexts and may be shared
///           across concurrent jobs; byte-bounded with eviction.
enum class CachePolicy { kOff, kStep, kShared };

const char* to_string(CachePolicy policy);

/// Parse "off" | "step" | "shared"; empty optional on anything else.
std::optional<CachePolicy> parse_cache_policy(const std::string& text);

/// Default byte budget of a SharedScenarioCache (256 MiB).
inline constexpr std::size_t kDefaultCacheBytes = std::size_t{256} << 20;

/// Context-qualified memoization key: one fingerprint word identifying the
/// *simulation* context — the (start map, end time) pair that, with the
/// scenario, fully determines the simulated ignition map — plus the bit
/// patterns of the nine Table I parameters (negative zeros normalized so
/// -0.0 and +0.0 share an entry). Scoring inputs (target map, interval
/// start) are deliberately NOT part of the key: they only affect fitness,
/// which is cached per target inside the entry. A key with context == 0 is
/// context-local (the kStep cache, which is wiped on context change
/// instead).
struct ScenarioKey {
  std::uint64_t context = 0;
  std::array<std::uint64_t, 9> params{};

  friend bool operator==(const ScenarioKey&, const ScenarioKey&) = default;
};

/// Parameter bits of `scenario` (context left 0; stamp it for shared use).
ScenarioKey make_scenario_key(const firelib::Scenario& scenario);

struct ScenarioKeyHash {
  std::size_t operator()(const ScenarioKey& key) const;
};

/// Content fingerprint of an ignition map (dimensions + cell bit patterns).
/// Guards cached entries against pointer reuse and in-place mutation.
std::uint64_t map_fingerprint(const firelib::IgnitionMap& map);

/// Content fingerprint of the terrain a fire spreads over: dimensions, cell
/// size and every per-cell fuel/slope/aspect layer. Without it, two
/// campaign jobs over different terrains whose (byte-identical single-cell)
/// start maps and scenarios coincide would share entries — and serve maps
/// simulated on the wrong terrain.
std::uint64_t environment_fingerprint(const firelib::FireEnvironment& env);

/// Fingerprint of a simulation context: the environment's and start map's
/// fingerprints and the end time's bit pattern — everything beyond the
/// scenario that determines the simulated map.
std::uint64_t context_fingerprint(std::uint64_t environment_fingerprint,
                                  std::uint64_t start_fingerprint,
                                  double end_time);

/// One memoized Eq. (3) score: fitness is a pure function of (map, target
/// map, interval start), so it is cached per (target fingerprint, start-time
/// bits) alongside the map.
struct FitnessRecord {
  std::uint64_t target_fingerprint = 0;
  std::uint64_t start_time_bits = 0;
  double fitness = 0.0;
};

/// What a cached scenario can answer so far; fields fill in lazily (a
/// fitness-only request stores its score, a later keep_map miss adds the
/// map, and new targets append further fitness records). Keyed by
/// *simulation* identity — (scenario, start map, end time) — so the same
/// simulation scored against different targets (the OS fitness pass vs the
/// SS map pass of one prediction step) shares one entry.
struct CachedScenario {
  std::optional<firelib::IgnitionMap> map;
  std::vector<FitnessRecord> fitnesses;  ///< usually 0 or 1 records

  const double* find_fitness(std::uint64_t target_fingerprint,
                             std::uint64_t start_time_bits) const;
  /// Append-if-missing (existing records win; they are byte-identical by
  /// the pure-function contract).
  void set_fitness(std::uint64_t target_fingerprint,
                   std::uint64_t start_time_bits, double fitness);
};

/// Which Eq. (3) score a lookup needs (nullptr: the map alone).
struct FitnessQuery {
  std::uint64_t target_fingerprint = 0;
  std::uint64_t start_time_bits = 0;
};

/// Bytes an entry is charged against the budget: key + bookkeeping overhead
/// plus the stored map's cells. The same accounting is used by the kStep
/// cache so `cache_bytes` means one thing across policies.
std::size_t entry_charge(const CachedScenario& value);

/// Point-in-time counters; aggregated over shards by SharedScenarioCache.
struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
  std::size_t insertions_rejected = 0;  ///< entries larger than a shard budget
  std::size_t entries = 0;
  std::size_t bytes = 0;

  double hit_rate() const {
    const std::size_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// What one insert did to the cache (the caller attributes these to itself
/// for per-job reporting; the shard also counts them globally).
struct InsertOutcome {
  std::size_t evictions = 0;
  bool rejected = false;
};

/// One live entry exported for persistence (cache/cache_io.hpp): the key,
/// the shared value, and the accumulated observed simulation cost that
/// weights eviction — restoring the cost keeps eviction cost-aware across
/// restarts.
struct ExportedEntry {
  ScenarioKey key;
  std::shared_ptr<const CachedScenario> value;
  double cost_seconds = 0.0;
};

/// One mutex-protected segment of the shared cache. Segmented LRU: a first
/// hit promotes an entry from the probationary list to the protected list
/// (capped at ~4/5 of the shard budget; overflow demotes back). Eviction
/// samples the probationary tail and removes the entry with the least
/// observed simulation cost per charged byte.
class ScenarioCacheShard {
 public:
  explicit ScenarioCacheShard(std::size_t max_bytes);

  ScenarioCacheShard(const ScenarioCacheShard&) = delete;
  ScenarioCacheShard& operator=(const ScenarioCacheShard&) = delete;

  /// The cached value iff it can satisfy the request without simulating:
  /// the map must be present when `need_map`, and a `fitness` query is
  /// satisfiable by a matching record *or* by a stored map (the caller can
  /// re-score a byte-exact map far cheaper than re-simulating it). nullptr
  /// otherwise. A satisfying lookup counts as a hit and promotes the
  /// entry; anything else counts as a miss.
  std::shared_ptr<const CachedScenario> find(const ScenarioKey& key,
                                             bool need_map,
                                             const FitnessQuery* fitness);

  /// Merge `value` into the entry for `key` (existing fields win: they are
  /// byte-identical by construction, so first-writer is as good as last).
  /// `cost_seconds` is the observed simulation cost, accumulated per entry
  /// and used to weight eviction. Evicts until the shard fits its budget;
  /// a value larger than the whole budget is rejected.
  InsertOutcome insert(const ScenarioKey& key, CachedScenario value,
                       double cost_seconds);

  CacheStats stats() const;
  std::size_t max_bytes() const { return max_bytes_; }

  /// Append every live entry, coldest first (probationary LRU -> MRU, then
  /// protected LRU -> MRU): re-inserting a snapshot in order leaves the
  /// hottest entries most recently used again. Values are shared, not
  /// copied.
  void export_entries(std::vector<ExportedEntry>& out) const;

 private:
  struct Entry {
    ScenarioKey key;
    std::shared_ptr<const CachedScenario> value;
    std::size_t charge = 0;
    double cost_seconds = 0.0;
  };
  using EntryList = std::list<Entry>;
  struct IndexSlot {
    bool in_protected = false;
    EntryList::iterator it;
  };

  /// Evict until `needed` more bytes fit; true on success. Requires the
  /// caller to hold mutex_.
  bool make_room(std::size_t needed, std::size_t& evicted);
  void evict_one(EntryList& list, bool is_protected);

  const std::size_t max_bytes_;
  mutable std::mutex mutex_;
  EntryList probation_;  ///< MRU at front
  EntryList protected_;  ///< MRU at front
  std::unordered_map<ScenarioKey, IndexSlot, ScenarioKeyHash> index_;
  std::size_t bytes_ = 0;
  std::size_t protected_bytes_ = 0;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t evictions_ = 0;
  std::size_t insertions_rejected_ = 0;
};

/// The process-wide cache a CampaignScheduler shares across all concurrent
/// jobs: N independent shards (keyed by the high bits of the key hash) so
/// concurrent pipelines rarely contend on one mutex. The byte budget is
/// split evenly over the shards, so total bytes never exceed `max_bytes`.
class SharedScenarioCache {
 public:
  explicit SharedScenarioCache(std::size_t max_bytes = kDefaultCacheBytes,
                               std::size_t shard_count = 8);

  SharedScenarioCache(const SharedScenarioCache&) = delete;
  SharedScenarioCache& operator=(const SharedScenarioCache&) = delete;

  std::shared_ptr<const CachedScenario> find(const ScenarioKey& key,
                                             bool need_map,
                                             const FitnessQuery* fitness);
  InsertOutcome insert(const ScenarioKey& key, CachedScenario value,
                       double cost_seconds);

  /// Aggregated over shards. `entries`/`bytes` are point-in-time snapshots;
  /// counters are monotonic.
  CacheStats stats() const;

  std::size_t max_bytes() const { return max_bytes_; }
  std::size_t shard_count() const { return shards_.size(); }

  /// Snapshot of every live entry across the shards (each shard coldest
  /// first), for serialization. Consistent per shard, not globally: entries
  /// inserted concurrently with the export may or may not appear.
  std::vector<ExportedEntry> export_entries() const;

 private:
  ScenarioCacheShard& shard_for(const ScenarioKey& key);

  std::size_t max_bytes_;
  std::vector<std::unique_ptr<ScenarioCacheShard>> shards_;
};

}  // namespace essns::cache
