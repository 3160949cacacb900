#include "core/archive.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace essns::core {

NoveltyArchive::NoveltyArchive(ArchiveConfig config, std::uint64_t seed)
    : config_(config), rng_(seed) {
  ESSNS_REQUIRE(config.policy == ArchivePolicy::kUnbounded ||
                    config.capacity > 0,
                "bounded archive needs positive capacity");
}

void NoveltyArchive::update(std::span<const ea::Individual> offspring) {
  for (const ea::Individual& ind : offspring) {
    switch (config_.policy) {
      case ArchivePolicy::kNoveltyRanked:
        insert_novelty_ranked(ind);
        break;
      case ArchivePolicy::kRandom:
        insert_random(ind);
        break;
      case ArchivePolicy::kThreshold:
        insert_threshold(ind);
        break;
      case ArchivePolicy::kUnbounded:
        items_.push_back(ind);
        break;
    }
  }
}

double NoveltyArchive::min_novelty() const {
  double lo = std::numeric_limits<double>::infinity();
  for (const auto& ind : items_) lo = std::min(lo, ind.novelty);
  return items_.empty() ? 0.0 : lo;
}

void NoveltyArchive::insert_novelty_ranked(const ea::Individual& ind) {
  if (items_.size() < config_.capacity) {
    items_.push_back(ind);
    return;
  }
  // Replace the least novel archived entry if the candidate beats it.
  auto weakest = std::min_element(
      items_.begin(), items_.end(),
      [](const auto& a, const auto& b) { return a.novelty < b.novelty; });
  if (ind.novelty > weakest->novelty) *weakest = ind;
}

void NoveltyArchive::insert_random(const ea::Individual& ind) {
  if (items_.size() < config_.capacity) {
    items_.push_back(ind);
    return;
  }
  const auto victim = static_cast<std::size_t>(rng_.uniform_int(
      0, static_cast<std::int64_t>(items_.size()) - 1));
  items_[victim] = ind;
}

void NoveltyArchive::insert_threshold(const ea::Individual& ind) {
  if (ind.novelty <= config_.novelty_threshold) return;
  if (items_.size() >= config_.capacity)
    items_.erase(items_.begin());  // evict oldest
  items_.push_back(ind);
}

BestSet::BestSet(std::size_t capacity) : capacity_(capacity) {
  ESSNS_REQUIRE(capacity > 0, "bestSet capacity must be positive");
}

void BestSet::update(std::span<const ea::Individual> candidates) {
  for (const ea::Individual& cand : candidates) {
    if (!cand.evaluated()) continue;
    // Exact-genome duplicate: keep the better fitness, do not double-store.
    auto dup = std::find_if(items_.begin(), items_.end(), [&](const auto& it) {
      return it.genome == cand.genome;
    });
    if (dup != items_.end()) {
      if (cand.fitness > dup->fitness) *dup = cand;
      continue;
    }
    if (items_.size() < capacity_) {
      items_.push_back(cand);
    } else {
      auto weakest = std::min_element(
          items_.begin(), items_.end(),
          [](const auto& a, const auto& b) { return a.fitness < b.fitness; });
      if (cand.fitness > weakest->fitness) *weakest = cand;
    }
  }
  std::sort(items_.begin(), items_.end(),
            [](const auto& a, const auto& b) { return a.fitness > b.fitness; });
}

double BestSet::max_fitness() const {
  return items_.empty() ? -std::numeric_limits<double>::infinity()
                        : items_.front().fitness;
}

double BestSet::min_fitness() const {
  return items_.empty() ? -std::numeric_limits<double>::infinity()
                        : items_.back().fitness;
}

}  // namespace essns::core
