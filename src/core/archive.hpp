// The archive of novel solutions (§II-C) and the bestSet of Algorithm 1.
//
// The paper's baseline uses a fixed-size archive "managed with replacement
// based on novelty only" (§III-B). Its future-work section (§IV) anticipates
// randomized replacement (as in Doncieux et al. 2020), a novelty threshold
// for admission (Lehman & Stanley 2008), and dynamically-sized archives; all
// four policies are implemented here and compared in EXP-A.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ea/individual.hpp"

namespace essns::core {

enum class ArchivePolicy {
  kNoveltyRanked,      ///< paper baseline: keep the most novel (fixed capacity)
  kRandom,             ///< random replacement once full (Doncieux et al.)
  kThreshold,          ///< admit only novelty > threshold; evict oldest when full
  kUnbounded,          ///< keep everything (dynamic size; memory grows)
};

struct ArchiveConfig {
  ArchivePolicy policy = ArchivePolicy::kNoveltyRanked;
  std::size_t capacity = 64;        ///< ignored by kUnbounded
  double novelty_threshold = 0.0;   ///< used by kThreshold
};

/// Archive of novel solutions. Stores copies of individuals with the novelty
/// value they had when archived.
class NoveltyArchive {
 public:
  explicit NoveltyArchive(ArchiveConfig config = {}, std::uint64_t seed = 7);

  /// Algorithm 1 line 15: updateArchive(archive, offspring). Individuals must
  /// have their novelty already evaluated.
  void update(std::span<const ea::Individual> offspring);

  const std::vector<ea::Individual>& items() const { return items_; }
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  const ArchiveConfig& config() const { return config_; }

  /// Smallest archived novelty (the replacement frontier); 0 when empty.
  double min_novelty() const;

 private:
  void insert_novelty_ranked(const ea::Individual& ind);
  void insert_random(const ea::Individual& ind);
  void insert_threshold(const ea::Individual& ind);

  ArchiveConfig config_;
  std::vector<ea::Individual> items_;
  Rng rng_;
};

/// bestSet: the collection of highest-fitness individuals accumulated over
/// the entire search — the *output* of ESS-NS (replaces the evolved
/// population used by ESS/ESSIM). Fixed capacity, lowest-fitness evicted.
class BestSet {
 public:
  explicit BestSet(std::size_t capacity = 32);

  /// Algorithm 1 line 17: updateBest(bestSet, offspring). Accepts any
  /// evaluated individuals; keeps the `capacity` best by fitness. Exact
  /// duplicates (same genome) update in place rather than occupying two slots.
  void update(std::span<const ea::Individual> candidates);

  const std::vector<ea::Individual>& items() const { return items_; }
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  std::size_t capacity() const { return capacity_; }

  /// Algorithm 1 line 18: getMaxFitness(bestSet); -inf when empty.
  double max_fitness() const;

  /// Lowest fitness currently retained; -inf when empty.
  double min_fitness() const;

 private:
  std::size_t capacity_;
  std::vector<ea::Individual> items_;  // kept sorted by descending fitness
};

}  // namespace essns::core
