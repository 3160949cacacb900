#include "ess/calibration.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"

namespace essns::ess {

KignSearchResult search_kign(const Grid<double>& probability,
                             const firelib::BurnedCells& real_burned,
                             const firelib::BurnedCells& preburned,
                             int candidates) {
  ESSNS_REQUIRE(candidates >= 1, "need at least one threshold candidate");
  ESSNS_REQUIRE(probability.rows() == real_burned.rows &&
                    probability.cols() == real_burned.cols &&
                    probability.rows() == preburned.rows &&
                    probability.cols() == preburned.cols &&
                    real_burned.words.size() == preburned.words.size() &&
                    real_burned.words.size() ==
                        firelib::burned_words(probability.size()),
                "jaccard masks must share dimensions");
  // Thresholding at K predicts exactly the cells with p >= K, so Eq. (3)'s
  // counts at K are: intersection = real cells with p >= K, union = every
  // real cell plus the other cells with p >= K (preburned cells excluded
  // throughout). One pass splits the probabilities, a sort makes each count
  // a binary search, and the integer counts — hence the quotients — equal
  // those of thresholding the grid and calling jaccard() per candidate.
  std::vector<double> real;
  std::vector<double> other;
  std::size_t real_count = 0;
  const std::size_t n = probability.size();
  const double* p = probability.data();
  const std::uint64_t* in_real = real_burned.words.data();
  const std::uint64_t* pre = preburned.words.data();
  const auto bit = [](const std::uint64_t* words, std::size_t i) {
    return ((words[i / 64] >> (i % 64)) & 1u) != 0;
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (bit(pre, i)) continue;
    const bool is_real = bit(in_real, i);
    if (is_real) ++real_count;
    // A NaN probability is below every threshold (p >= K is false).
    if (p[i] != p[i]) continue;
    (is_real ? real : other).push_back(p[i]);
  }
  std::sort(real.begin(), real.end());
  std::sort(other.begin(), other.end());
  const auto at_least = [](const std::vector<double>& sorted, double k) {
    return static_cast<std::size_t>(
        sorted.end() - std::lower_bound(sorted.begin(), sorted.end(), k));
  };

  KignSearchResult best;
  best.fitness = -1.0;
  for (int i = 1; i <= candidates; ++i) {
    const double k = static_cast<double>(i) / static_cast<double>(candidates);
    const std::size_t intersection = at_least(real, k);
    const std::size_t set_union = real_count + at_least(other, k);
    const double fit = set_union == 0 ? 1.0
                                      : static_cast<double>(intersection) /
                                            static_cast<double>(set_union);
    if (fit > best.fitness) {
      best.fitness = fit;
      best.kign = k;
    }
    ++best.evaluated;
  }
  return best;
}

KignSearchResult search_kign(const Grid<double>& probability,
                             const Grid<std::uint8_t>& real_burned,
                             const Grid<std::uint8_t>& preburned,
                             int candidates) {
  return search_kign(probability, firelib::burned_cells(real_burned),
                     firelib::burned_cells(preburned), candidates);
}

}  // namespace essns::ess
