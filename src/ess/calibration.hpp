// Calibration Stage (CS-Master): the S_Kign search of Fig. 1/Fig. 2 — find
// the probability threshold (Key Ignition Value) that makes the aggregated
// matrix best reproduce the current real fire line, measured by Eq. (3).
#pragma once

#include "common/grid.hpp"
#include "firelib/propagator.hpp"

namespace essns::ess {

struct KignSearchResult {
  double kign = 0.5;      ///< best threshold found
  double fitness = 0.0;   ///< Jaccard achieved at that threshold
  int evaluated = 0;      ///< thresholds tried
};

/// Exhaustive grid search over `candidates` equally-spaced thresholds in
/// (0, 1]: for each K, threshold `probability` and score Eq. (3) against
/// `real_burned` (excluding `preburned`). Ties keep the smaller K (a more
/// inclusive prediction).
KignSearchResult search_kign(const Grid<double>& probability,
                             const firelib::BurnedCells& real_burned,
                             const firelib::BurnedCells& preburned,
                             int candidates = 100);

/// The same search against burned masks.
KignSearchResult search_kign(const Grid<double>& probability,
                             const Grid<std::uint8_t>& real_burned,
                             const Grid<std::uint8_t>& preburned,
                             int candidates = 100);

}  // namespace essns::ess
