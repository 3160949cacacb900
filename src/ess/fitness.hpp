// Prediction-quality fitness — Eq. (3) of the paper.
//
// fitness(A, B) = |A ∩ B| / |A ∪ B|  (Jaccard index), where A is the set of
// really-burned cells and B the simulated/predicted burned cells, both
// *excluding* the cells already burned before the simulation interval started
// ("previously burned cells are not considered in order to avoid skewed
// results"). Ranges over [0,1]; 1 is a perfect prediction.
#pragma once

#include "common/grid.hpp"
#include "firelib/propagator.hpp"

namespace essns::ess {

/// Jaccard index between two burned masks, excluding cells marked in
/// `preburned`. Returns 1.0 when both effective sets are empty (a vacuously
/// perfect prediction) — this convention keeps early steps well-defined.
double jaccard(const Grid<std::uint8_t>& real_burned,
               const Grid<std::uint8_t>& simulated_burned,
               const Grid<std::uint8_t>& preburned);

/// The real-fire side of Eq. (3) over one interval, packed once per
/// interval: R, the cells the real map burned by the interval's end, and P,
/// the cells it had burned by the interval's start (excluded as preburned).
struct ScoringTarget {
  firelib::BurnedCells real;
  firelib::BurnedCells preburned;
};

/// Pack R = real_map <= end_time and P = real_map <= start_time. Both times
/// must be finite (never-ignited cells hold +inf, and inf <= inf would count
/// them as burned) and start_time must not exceed end_time.
ScoringTarget make_scoring_target(const firelib::IgnitionMap& real_map,
                                  double start_time, double end_time);

/// Eq. (3) on words: popcount(R & S & ~P) / popcount((R | S) & ~P), 1.0 on
/// an empty union. `simulated` is S, the cells a simulation burned by the
/// interval's end (the sweep's own record). The two counts are the same
/// integers the cell-by-cell form sums, so the quotient is bit-identical to
/// it.
double jaccard(const ScoringTarget& target,
               const firelib::BurnedCells& simulated);

/// The same on three records: Eq. (3) of `simulated` against `real`,
/// excluding `preburned`. All three must share one shape.
double jaccard(const firelib::BurnedCells& real,
               const firelib::BurnedCells& preburned,
               const firelib::BurnedCells& simulated);

}  // namespace essns::ess
