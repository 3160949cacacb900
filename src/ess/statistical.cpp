#include "ess/statistical.hpp"

#include <bit>

#include "common/error.hpp"

namespace essns::ess {

Grid<double> aggregate_burned(std::span<const BurnedCells* const> records) {
  ESSNS_REQUIRE(!records.empty() && records.front(),
                "cannot aggregate zero maps");
  Grid<double> probability(records.front()->rows, records.front()->cols, 0.0);
  const std::size_t words = firelib::burned_words(probability.size());
  double* cells = probability.data();
  for (const BurnedCells* record : records) {
    ESSNS_REQUIRE(record && record->rows == probability.rows() &&
                      record->cols == probability.cols() &&
                      record->words.size() == words,
                  "aggregated maps must share dimensions");
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = record->words[w]; bits != 0; bits &= bits - 1)
        cells[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))] +=
            1.0;
    }
  }
  const double inv = 1.0 / static_cast<double>(records.size());
  for (double& p : probability) p *= inv;
  return probability;
}

Grid<double> aggregate_probability_masks(
    std::span<const Grid<std::uint8_t>> masks) {
  ESSNS_REQUIRE(!masks.empty(), "cannot aggregate zero masks");
  Grid<double> probability(masks.front().rows(), masks.front().cols(), 0.0);
  for (const auto& mask : masks) {
    ESSNS_REQUIRE(mask.rows() == probability.rows() &&
                      mask.cols() == probability.cols(),
                  "aggregated masks must share dimensions");
    for (int r = 0; r < mask.rows(); ++r)
      for (int c = 0; c < mask.cols(); ++c)
        if (mask(r, c)) probability(r, c) += 1.0;
  }
  const double inv = 1.0 / static_cast<double>(masks.size());
  for (double& p : probability) p *= inv;
  return probability;
}

Grid<std::uint8_t> apply_kign(const Grid<double>& probability, double kign) {
  ESSNS_REQUIRE(kign >= 0.0 && kign <= 1.0, "kign must lie in [0,1]");
  Grid<std::uint8_t> burned(probability.rows(), probability.cols(), 0);
  for (int r = 0; r < probability.rows(); ++r)
    for (int c = 0; c < probability.cols(); ++c)
      burned(r, c) = probability(r, c) >= kign ? 1 : 0;
  return burned;
}

}  // namespace essns::ess
