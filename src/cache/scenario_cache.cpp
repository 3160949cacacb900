#include "cache/scenario_cache.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace essns::cache {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (byte * 8)) & 0xffULL;
    hash *= kFnvPrime;
  }
  return hash;
}

std::uint64_t param_bits(double value) {
  return std::bit_cast<std::uint64_t>(value == 0.0 ? 0.0 : value);
}

/// Eviction scans this many LRU-tail entries and removes the one with the
/// least simulation cost per charged byte.
constexpr int kVictimSample = 4;

}  // namespace

const char* to_string(CachePolicy policy) {
  switch (policy) {
    case CachePolicy::kOff: return "off";
    case CachePolicy::kStep: return "step";
    case CachePolicy::kShared: return "shared";
  }
  return "off";
}

std::optional<CachePolicy> parse_cache_policy(const std::string& text) {
  if (text == "off") return CachePolicy::kOff;
  if (text == "step") return CachePolicy::kStep;
  if (text == "shared") return CachePolicy::kShared;
  return std::nullopt;
}

ScenarioKey make_scenario_key(const firelib::Scenario& scenario) {
  ScenarioKey key;
  key.params[0] =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(scenario.model));
  key.params[1] = param_bits(scenario.wind_speed);
  key.params[2] = param_bits(scenario.wind_dir);
  key.params[3] = param_bits(scenario.m1);
  key.params[4] = param_bits(scenario.m10);
  key.params[5] = param_bits(scenario.m100);
  key.params[6] = param_bits(scenario.mherb);
  key.params[7] = param_bits(scenario.slope);
  key.params[8] = param_bits(scenario.aspect);
  return key;
}

std::size_t ScenarioKeyHash::operator()(const ScenarioKey& key) const {
  std::uint64_t hash = fnv1a(kFnvOffset, key.context);
  for (const std::uint64_t word : key.params) hash = fnv1a(hash, word);
  return static_cast<std::size_t>(hash);
}

std::uint64_t map_fingerprint(const firelib::IgnitionMap& map) {
  std::uint64_t hash = kFnvOffset;
  hash = fnv1a(hash, static_cast<std::uint64_t>(map.rows()));
  hash = fnv1a(hash, static_cast<std::uint64_t>(map.cols()));
  const double* data = map.data();
  for (std::size_t i = 0; i < map.size(); ++i)
    hash = fnv1a(hash, std::bit_cast<std::uint64_t>(data[i]));
  return hash;
}

std::uint64_t environment_fingerprint(const firelib::FireEnvironment& env) {
  std::uint64_t hash = kFnvOffset;
  hash = fnv1a(hash, static_cast<std::uint64_t>(env.rows()));
  hash = fnv1a(hash, static_cast<std::uint64_t>(env.cols()));
  hash = fnv1a(hash, std::bit_cast<std::uint64_t>(env.cell_size_ft()));
  hash = fnv1a(hash, env.has_fuel_map() ? 1 : 0);
  if (const Grid<std::uint8_t>* fuel = env.fuel_map()) {
    const std::uint8_t* data = fuel->data();
    // Pack the byte-sized fuel codes eight at a time through the word mixer.
    std::uint64_t word = 0;
    std::size_t packed = 0;
    for (std::size_t i = 0; i < fuel->size(); ++i) {
      word = (word << 8) | data[i];
      if (++packed == 8) {
        hash = fnv1a(hash, word);
        word = 0;
        packed = 0;
      }
    }
    if (packed != 0) hash = fnv1a(hash, word);
  }
  hash = fnv1a(hash, env.has_topography() ? 1 : 0);
  if (env.has_topography()) {
    const firelib::Scenario probe;  // per-cell layers override its fields
    for (int r = 0; r < env.rows(); ++r) {
      for (int c = 0; c < env.cols(); ++c) {
        hash = fnv1a(hash,
                     std::bit_cast<std::uint64_t>(env.slope_deg_at(r, c, probe)));
        hash = fnv1a(
            hash, std::bit_cast<std::uint64_t>(env.aspect_deg_at(r, c, probe)));
      }
    }
  }
  return hash;
}

std::uint64_t context_fingerprint(std::uint64_t environment_fingerprint,
                                  std::uint64_t start_fingerprint,
                                  double end_time) {
  std::uint64_t hash = fnv1a(kFnvOffset, environment_fingerprint);
  hash = fnv1a(hash, start_fingerprint);
  hash = fnv1a(hash, std::bit_cast<std::uint64_t>(end_time));
  return hash;
}

const double* CachedScenario::find_fitness(std::uint64_t target_fingerprint,
                                           std::uint64_t start_time_bits) const {
  for (const FitnessRecord& record : fitnesses)
    if (record.target_fingerprint == target_fingerprint &&
        record.start_time_bits == start_time_bits)
      return &record.fitness;
  return nullptr;
}

void CachedScenario::set_fitness(std::uint64_t target_fingerprint,
                                 std::uint64_t start_time_bits,
                                 double fitness) {
  if (find_fitness(target_fingerprint, start_time_bits)) return;
  fitnesses.push_back({target_fingerprint, start_time_bits, fitness});
}

std::size_t entry_charge(const CachedScenario& value) {
  // Key, the lazily-filled fields, plus a generous flat allowance for the
  // list node, index slot and shared_ptr control block — the budget errs
  // on the side of overcounting so small entries cannot blow past it.
  std::size_t bytes = sizeof(ScenarioKey) + sizeof(CachedScenario) + 160 +
                      value.fitnesses.size() * sizeof(FitnessRecord);
  if (value.map) bytes += value.map->size() * sizeof(double);
  return bytes;
}

ScenarioCacheShard::ScenarioCacheShard(std::size_t max_bytes)
    : max_bytes_(max_bytes) {}

std::shared_ptr<const CachedScenario> ScenarioCacheShard::find(
    const ScenarioKey& key, bool need_map, const FitnessQuery* fitness) {
  std::lock_guard lock(mutex_);
  const auto idx = index_.find(key);
  if (idx == index_.end()) {
    ++misses_;
    obs::add_counter("cache.misses", 1);
    return nullptr;
  }
  IndexSlot& slot = idx->second;
  const Entry& entry = *slot.it;
  const bool map_ok = !need_map || entry.value->map.has_value();
  // A fitness query is servable by a matching record or by the stored map
  // (re-scoring a byte-exact map is far cheaper than re-simulating it).
  const bool fitness_ok =
      !fitness || entry.value->map.has_value() ||
      entry.value->find_fitness(fitness->target_fingerprint,
                                fitness->start_time_bits) != nullptr;
  if (!map_ok || !fitness_ok) {
    // A partial entry cannot satisfy the request; the caller simulates and
    // its insert fills the missing field. Not promoted: only full hits
    // count as reuse.
    ++misses_;
    obs::add_counter("cache.misses", 1);
    return nullptr;
  }
  ++hits_;
  obs::add_counter("cache.hits", 1);
  if (slot.in_protected) {
    protected_.splice(protected_.begin(), protected_, slot.it);
  } else {
    // Second touch: promote to the protected segment, demoting its LRU
    // overflow back to probation so protected stays within ~4/5 of the
    // shard budget (classic segmented LRU).
    protected_.splice(protected_.begin(), probation_, slot.it);
    slot.in_protected = true;
    protected_bytes_ += entry.charge;
    const std::size_t protected_cap = max_bytes_ - max_bytes_ / 5;
    while (protected_bytes_ > protected_cap && protected_.size() > 1) {
      const auto demoted = std::prev(protected_.end());
      protected_bytes_ -= demoted->charge;
      IndexSlot& demoted_slot = index_.at(demoted->key);
      probation_.splice(probation_.begin(), protected_, demoted);
      demoted_slot.in_protected = false;
      demoted_slot.it = probation_.begin();
    }
  }
  return slot.it->value;
}

void ScenarioCacheShard::evict_one(EntryList& list, bool is_protected) {
  // Cost-aware victim selection: among the kVictimSample LRU-tail entries,
  // drop the one with the least observed simulation cost per charged byte.
  auto victim = std::prev(list.end());
  double victim_ratio =
      victim->cost_seconds / static_cast<double>(victim->charge);
  auto it = victim;
  for (int n = 1; n < kVictimSample && it != list.begin(); ++n) {
    --it;
    const double ratio = it->cost_seconds / static_cast<double>(it->charge);
    if (ratio < victim_ratio) {
      victim = it;
      victim_ratio = ratio;
    }
  }
  bytes_ -= victim->charge;
  if (is_protected) protected_bytes_ -= victim->charge;
  index_.erase(victim->key);
  list.erase(victim);
  ++evictions_;
  obs::add_counter("cache.evictions", 1);
}

bool ScenarioCacheShard::make_room(std::size_t needed, std::size_t& evicted) {
  while (bytes_ + needed > max_bytes_) {
    if (!probation_.empty()) {
      evict_one(probation_, false);
    } else if (!protected_.empty()) {
      evict_one(protected_, true);
    } else {
      return false;
    }
    ++evicted;
  }
  return true;
}

InsertOutcome ScenarioCacheShard::insert(const ScenarioKey& key,
                                         CachedScenario value,
                                         double cost_seconds) {
  std::lock_guard lock(mutex_);
  InsertOutcome out;
  const auto idx = index_.find(key);
  if (idx != index_.end()) {
    // Merge: existing fields win — they are byte-identical to the incoming
    // ones by the pure-function-of-key contract, so only missing fields
    // grow the entry.
    Entry& entry = *idx->second.it;
    entry.cost_seconds += cost_seconds;
    // Decide whether the merge adds anything BEFORE cloning: entries carry
    // whole ignition maps, and duplicate inserts (two jobs race-simulating
    // one key) are common enough that an unconditional deep copy under the
    // shard mutex would hurt.
    const bool adds_map = !entry.value->map && value.map;
    bool adds_fitness = false;
    for (const FitnessRecord& record : value.fitnesses)
      if (!entry.value->find_fitness(record.target_fingerprint,
                                     record.start_time_bits))
        adds_fitness = true;
    if (!adds_map && !adds_fitness) return out;
    CachedScenario merged = *entry.value;
    for (const FitnessRecord& record : value.fitnesses)
      merged.set_fitness(record.target_fingerprint, record.start_time_bits,
                         record.fitness);
    if (adds_map) merged.map = std::move(value.map);
    const std::size_t new_charge = entry_charge(merged);
    bytes_ += new_charge - entry.charge;
    if (idx->second.in_protected)
      protected_bytes_ += new_charge - entry.charge;
    entry.charge = new_charge;
    entry.value = std::make_shared<const CachedScenario>(std::move(merged));
    // The grown entry may push the shard over budget; trim back (the grown
    // entry itself is evictable if it is the sampled victim).
    make_room(0, out.evictions);
    return out;
  }

  const std::size_t charge = entry_charge(value);
  if (charge > max_bytes_) {
    ++insertions_rejected_;
    obs::add_counter("cache.insertions_rejected", 1);
    out.rejected = true;
    return out;
  }
  make_room(charge, out.evictions);
  probation_.push_front(
      Entry{key, std::make_shared<const CachedScenario>(std::move(value)),
            charge, cost_seconds});
  index_.emplace(key, IndexSlot{false, probation_.begin()});
  bytes_ += charge;
  return out;
}

CacheStats ScenarioCacheShard::stats() const {
  std::lock_guard lock(mutex_);
  CacheStats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.insertions_rejected = insertions_rejected_;
  stats.entries = index_.size();
  stats.bytes = bytes_;
  return stats;
}

void ScenarioCacheShard::export_entries(std::vector<ExportedEntry>& out) const {
  std::lock_guard lock(mutex_);
  // Both lists keep MRU at the front; walking back-to-front emits coldest
  // first, probation (colder segment) before protected.
  for (auto it = probation_.rbegin(); it != probation_.rend(); ++it)
    out.push_back({it->key, it->value, it->cost_seconds});
  for (auto it = protected_.rbegin(); it != protected_.rend(); ++it)
    out.push_back({it->key, it->value, it->cost_seconds});
}

SharedScenarioCache::SharedScenarioCache(std::size_t max_bytes,
                                         std::size_t shard_count)
    : max_bytes_(max_bytes) {
  ESSNS_REQUIRE(max_bytes > 0, "cache byte budget must be positive");
  ESSNS_REQUIRE(shard_count >= 1, "cache needs at least one shard");
  // Tiny budgets collapse to fewer shards so each shard still has a usable
  // slice (>= 64 KiB where possible); the per-shard budgets always sum to
  // <= max_bytes, which is the invariant the forced-eviction tests pin.
  constexpr std::size_t kMinShardBytes = std::size_t{64} << 10;
  const std::size_t usable =
      std::clamp<std::size_t>(max_bytes / kMinShardBytes, 1, shard_count);
  const std::size_t per_shard = max_bytes / usable;
  shards_.reserve(usable);
  for (std::size_t i = 0; i < usable; ++i)
    shards_.push_back(std::make_unique<ScenarioCacheShard>(per_shard));
}

ScenarioCacheShard& SharedScenarioCache::shard_for(const ScenarioKey& key) {
  // High hash bits pick the shard; the table inside each shard uses the
  // full hash, so shard selection and bucket selection stay decorrelated.
  const std::size_t hash = ScenarioKeyHash{}(key);
  return *shards_[(hash >> 48) % shards_.size()];
}

std::shared_ptr<const CachedScenario> SharedScenarioCache::find(
    const ScenarioKey& key, bool need_map, const FitnessQuery* fitness) {
  return shard_for(key).find(key, need_map, fitness);
}

InsertOutcome SharedScenarioCache::insert(const ScenarioKey& key,
                                          CachedScenario value,
                                          double cost_seconds) {
  return shard_for(key).insert(key, std::move(value), cost_seconds);
}

CacheStats SharedScenarioCache::stats() const {
  CacheStats total;
  for (const auto& shard : shards_) {
    const CacheStats s = shard->stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.insertions_rejected += s.insertions_rejected;
    total.entries += s.entries;
    total.bytes += s.bytes;
  }
  return total;
}

std::vector<ExportedEntry> SharedScenarioCache::export_entries() const {
  std::vector<ExportedEntry> out;
  for (const auto& shard : shards_) shard->export_entries(out);
  return out;
}

}  // namespace essns::cache
