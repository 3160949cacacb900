// FireEnvironment: the terrain a fire spreads over.
//
// The paper's scenarios (Table I) are spatially uniform: one fuel model, one
// wind, one slope/aspect for the whole map. Real landscapes are not, so the
// environment also supports per-cell fuel codes and per-cell slope/aspect
// (e.g. derived from a DEM by essns_synth). When a per-cell layer is present
// it overrides the corresponding scenario field; this is how the ground-truth
// generator creates heterogeneous "real" fires while the optimizers still
// search the 9-parameter scenario space.
#pragma once

#include <cstdint>
#include <optional>

#include "common/grid.hpp"
#include "firelib/scenario.hpp"

namespace essns::firelib {

class FireEnvironment {
 public:
  /// Uniform environment: every cell uses the scenario's fuel model.
  FireEnvironment(int rows, int cols, double cell_size_ft);

  /// Heterogeneous fuels: per-cell catalog numbers (0 = unburnable).
  void set_fuel_map(Grid<std::uint8_t> fuel);

  /// Per-cell topography overriding the scenario's slope/aspect (degrees).
  /// Each call draws a fresh topography_id().
  void set_topography(Grid<double> slope_deg, Grid<double> aspect_deg);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  double cell_size_ft() const { return cell_size_ft_; }

  bool has_fuel_map() const { return fuel_.has_value(); }
  bool has_topography() const { return slope_.has_value(); }

  /// Process-unique identity of the topography grids: 0 without topography,
  /// otherwise a value no other set_topography call in this process returns.
  /// Copies share it (they hold the same grids), so a sweep may key derived
  /// per-cell terrain fields on it — unlike an address, it cannot be reused
  /// by a later environment allocated where a freed one lived.
  std::uint64_t topography_id() const { return topography_id_; }

  /// Catalog number at (r, c) given the active scenario.
  int fuel_model_at(int r, int c, const Scenario& scenario) const {
    return fuel_ ? static_cast<int>((*fuel_)(r, c)) : scenario.model;
  }

  /// The per-cell fuel grid, or nullptr for scenario-uniform fuels. Hot loops
  /// read its data() directly instead of probing fuel_model_at per neighbour.
  const Grid<std::uint8_t>* fuel_map() const {
    return fuel_ ? &*fuel_ : nullptr;
  }

  double slope_deg_at(int r, int c, const Scenario& scenario) const {
    return slope_ ? (*slope_)(r, c) : scenario.slope;
  }

  double aspect_deg_at(int r, int c, const Scenario& scenario) const {
    return aspect_ ? (*aspect_)(r, c) : scenario.aspect;
  }

 private:
  int rows_;
  int cols_;
  double cell_size_ft_;
  std::optional<Grid<std::uint8_t>> fuel_;
  std::optional<Grid<double>> slope_;
  std::optional<Grid<double>> aspect_;
  std::uint64_t topography_id_ = 0;
};

}  // namespace essns::firelib
