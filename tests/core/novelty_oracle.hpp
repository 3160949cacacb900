// Test oracle for core::evaluate_novelty: the generic k-nearest-neighbour
// scorer of Eq. (1) — collect the Eq. (2) distance to every reference
// individual, partial_sort, average the k smallest. The library keeps only
// the sorted 1-D window path, which must reproduce this bit for bit.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "core/novelty.hpp"

namespace essns::core::oracle {

/// Eq. (1) for `x` against `reference`. Skips exactly one self occurrence
/// (by address, else by equal fitness and genome) so x's own zero distance
/// does not take one of the k slots; k <= 0 averages over the whole set.
inline double novelty_score(const ea::Individual& x,
                            std::span<const ea::Individual> reference, int k) {
  std::vector<double> distances;
  distances.reserve(reference.size());
  bool skipped_self = false;
  for (const ea::Individual& ref : reference) {
    if (!skipped_self && &ref == &x) {
      skipped_self = true;
      continue;
    }
    if (!skipped_self && ref.evaluated() && x.evaluated() &&
        ref.fitness == x.fitness && ref.genome == x.genome) {
      skipped_self = true;
      continue;
    }
    distances.push_back(fitness_distance(x, ref));
  }
  if (distances.empty()) return 0.0;

  const std::size_t kk =
      k <= 0 ? distances.size()
             : std::min<std::size_t>(static_cast<std::size_t>(k),
                                     distances.size());
  std::partial_sort(distances.begin(),
                    distances.begin() + static_cast<std::ptrdiff_t>(kk),
                    distances.end());
  double sum = 0.0;
  for (std::size_t i = 0; i < kk; ++i) sum += distances[i];
  return sum / static_cast<double>(kk);
}

/// novelty_score for every individual of `pop`, written in place.
inline void evaluate_novelty(std::span<ea::Individual> pop,
                             std::span<const ea::Individual> reference,
                             int k) {
  for (ea::Individual& ind : pop)
    ind.novelty = novelty_score(ind, reference, k);
}

}  // namespace essns::core::oracle
