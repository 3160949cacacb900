// Statistical Stage (SS): aggregate the burn maps of the selected scenarios
// into a matrix where each cell holds its probability of ignition — the
// uncertainty-reduction core of every DDM-MOS system (Fig. 1 / Fig. 2).
//
// The SS aggregates packed burned-cell records rather than whole ignition
// maps: every simulation's sweep records which cells burned by the end of
// its interval (SimulationResult::burned), the step cache keeps the OS's,
// and the SS of the same interval counts those records instead of
// re-simulating.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/grid.hpp"
#include "firelib/propagator.hpp"

namespace essns::ess {

/// The per-simulation record the SS aggregates (firelib::BurnedCells).
using firelib::BurnedCells;

/// Probability-of-ignition matrix: the fraction of `records` in which each
/// cell burned. All records must share dimensions. Each cell adds 1.0 per
/// record and is scaled by 1/N once at the end, so the result is
/// bit-identical to aggregating the maps the records were taken from.
Grid<double> aggregate_burned(std::span<const BurnedCells* const> records);

/// Same aggregation from precomputed burned masks.
Grid<double> aggregate_probability_masks(
    std::span<const Grid<std::uint8_t>> masks);

/// Threshold the probability matrix at the Key Ignition Value: cells with
/// probability >= kign are predicted burned. (Fig. 2's PS application.)
Grid<std::uint8_t> apply_kign(const Grid<double>& probability, double kign);

}  // namespace essns::ess
