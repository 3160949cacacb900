#include "ess/fitness.hpp"

#include <bit>
#include <cmath>

#include "common/error.hpp"

namespace essns::ess {

double jaccard(const Grid<std::uint8_t>& real_burned,
               const Grid<std::uint8_t>& simulated_burned,
               const Grid<std::uint8_t>& preburned) {
  ESSNS_REQUIRE(real_burned.rows() == simulated_burned.rows() &&
                    real_burned.cols() == simulated_burned.cols() &&
                    real_burned.rows() == preburned.rows() &&
                    real_burned.cols() == preburned.cols(),
                "jaccard masks must share dimensions");
  std::size_t intersection = 0;
  std::size_t set_union = 0;
  const std::size_t n = real_burned.size();
  const std::uint8_t* a = real_burned.data();
  const std::uint8_t* b = simulated_burned.data();
  const std::uint8_t* pre = preburned.data();
  for (std::size_t i = 0; i < n; ++i) {
    if (pre[i]) continue;
    const bool in_a = a[i] != 0;
    const bool in_b = b[i] != 0;
    intersection += in_a && in_b;
    set_union += in_a || in_b;
  }
  if (set_union == 0) return 1.0;
  return static_cast<double>(intersection) / static_cast<double>(set_union);
}

ScoringTarget make_scoring_target(const firelib::IgnitionMap& real_map,
                                  double start_time, double end_time) {
  ESSNS_REQUIRE(std::isfinite(end_time),
                "jaccard comparison time must be finite");
  ESSNS_REQUIRE(std::isfinite(start_time),
                "jaccard preburned horizon must be finite");
  ESSNS_REQUIRE(start_time <= end_time,
                "preburned horizon must not exceed the comparison time");
  return {firelib::burned_cells(real_map, end_time),
          firelib::burned_cells(real_map, start_time)};
}

double jaccard(const ScoringTarget& target,
               const firelib::BurnedCells& simulated) {
  return jaccard(target.real, target.preburned, simulated);
}

double jaccard(const firelib::BurnedCells& real_cells,
               const firelib::BurnedCells& preburned,
               const firelib::BurnedCells& simulated) {
  ESSNS_REQUIRE(real_cells.rows == simulated.rows &&
                    real_cells.cols == simulated.cols &&
                    real_cells.words.size() == simulated.words.size() &&
                    preburned.words.size() == simulated.words.size(),
                "jaccard maps must share dimensions");
  std::size_t intersection = 0;
  std::size_t set_union = 0;
  const std::uint64_t* real = real_cells.words.data();
  const std::uint64_t* pre = preburned.words.data();
  const std::uint64_t* sim = simulated.words.data();
  for (std::size_t w = 0; w < simulated.words.size(); ++w) {
    const std::uint64_t live = ~pre[w];
    intersection +=
        static_cast<std::size_t>(std::popcount(real[w] & sim[w] & live));
    set_union +=
        static_cast<std::size_t>(std::popcount((real[w] | sim[w]) & live));
  }
  if (set_union == 0) return 1.0;
  return static_cast<double>(intersection) / static_cast<double>(set_union);
}

}  // namespace essns::ess
