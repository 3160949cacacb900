#include "core/novelty.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace essns::core {

double fitness_distance(const ea::Individual& a, const ea::Individual& b) {
  ESSNS_REQUIRE(a.evaluated() && b.evaluated(),
                "fitness distance needs evaluated individuals");
  return std::fabs(a.fitness - b.fitness);
}

void evaluate_novelty(std::span<ea::Individual> pop,
                      std::span<const ea::Individual> reference, int k) {
  const auto evaluated = [](const ea::Individual& ind) {
    return ind.evaluated();
  };
  ESSNS_REQUIRE(std::all_of(reference.begin(), reference.end(), evaluated) &&
                    std::all_of(pop.begin(), pop.end(), evaluated),
                "fitness distance needs evaluated individuals");

  // (fitness, reference index) sorted by fitness; the index recovers the
  // genome for the self-skip check on exact-fitness ties. The window
  // distances are re-sorted ascending before summing, so the sum runs in
  // the order of a generic partial_sort over all distances.
  const std::size_t ref_count = reference.size();
  std::vector<std::pair<double, std::size_t>> sorted;
  sorted.reserve(ref_count);
  for (std::size_t i = 0; i < ref_count; ++i)
    sorted.emplace_back(reference[i].fitness, i);
  std::sort(sorted.begin(), sorted.end());

  const ea::Individual* ref_begin = reference.data();
  const ea::Individual* ref_end = ref_begin + ref_count;
  std::vector<double> window;
  for (ea::Individual& x : pop) {
    const double fx = x.fitness;

    // Skip exactly one self occurrence: by address when x lives inside the
    // reference span, else by (fitness, genome) equality. Every skip
    // candidate has distance 0, so which one is skipped never changes the
    // distance multiset — only whether one fx entry is removed.
    const std::less<const ea::Individual*> before;
    bool skip_self = !before(&x, ref_begin) && before(&x, ref_end);
    const auto lower = std::lower_bound(
        sorted.begin(), sorted.end(), std::make_pair(fx, std::size_t{0}),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    if (!skip_self) {
      for (auto it = lower; it != sorted.end() && it->first == fx; ++it) {
        if (reference[it->second].genome == x.genome) {
          skip_self = true;
          break;
        }
      }
    }

    std::size_t left = static_cast<std::size_t>(lower - sorted.begin());
    std::size_t right = left;
    if (skip_self) ++right;  // drop one exact-fitness entry (distance 0)
    const std::size_t available = ref_count - (skip_self ? 1 : 0);
    if (available == 0) {
      x.novelty = 0.0;
      continue;
    }
    const std::size_t kk =
        k <= 0 ? available
               : std::min<std::size_t>(static_cast<std::size_t>(k), available);

    window.clear();
    while (window.size() < kk) {
      const bool has_left = left > 0;
      const bool has_right = right < ref_count;
      // |fx - f| as the same IEEE subtraction magnitude fitness_distance's
      // fabs produces.
      const double left_dist = has_left ? fx - sorted[left - 1].first : 0.0;
      const double right_dist = has_right ? sorted[right].first - fx : 0.0;
      if (has_left && (!has_right || left_dist <= right_dist)) {
        window.push_back(left_dist);
        --left;
      } else {
        window.push_back(right_dist);
        ++right;
      }
    }
    std::sort(window.begin(), window.end());
    double sum = 0.0;
    for (const double d : window) sum += d;
    x.novelty = sum / static_cast<double>(kk);
  }
}

}  // namespace essns::core
