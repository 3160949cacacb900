// ScenarioCatalog: expand a compact CatalogSpec into a fleet of distinct
// Workloads — the workload side of the campaign service (src/service/).
//
// The paper evaluates three named burn cases; a production prediction
// service faces many simultaneous fires over diverse terrain, weather and
// outbreak geometry. A CatalogSpec is the cross product
//   terrain family x map size x weather regime x ignition pattern x seeds
// and generate_catalog() enumerates it into named workloads, each carrying
// its own derived seed so seed replicates of the same cell are distinct
// fires. Generation is fully deterministic: the same spec always yields the
// same workload list, bit for bit, which is what makes campaign runs
// reproducible across job-concurrency levels.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "synth/workloads.hpp"

namespace essns::synth {

enum class TerrainFamily { kPlains, kHills, kRugged };
enum class WeatherRegime { kSteady, kWindShift, kDiurnal };
enum class IgnitionPattern { kCenter, kOffset, kEdge, kCorner };

const char* to_string(TerrainFamily family);
const char* to_string(WeatherRegime regime);
const char* to_string(IgnitionPattern pattern);

/// Inverse of to_string(); empty optional on an unknown name. The serve
/// request parser and the catalog spec parser share these, so a fire
/// described over the wire names exactly the same enumerators a catalog
/// file would.
std::optional<TerrainFamily> parse_terrain_family(const std::string& name);
std::optional<WeatherRegime> parse_weather_regime(const std::string& name);
std::optional<IgnitionPattern> parse_ignition_pattern(const std::string& name);

/// One catalog cell, addressed directly: everything that determines a
/// single fire. make_workload(request) is the pure function both
/// generate_catalog() (which derives `seed` by chaining the spec's
/// base_seed through the cell's dimension indices) and the serve frontend
/// (which takes the seed straight off the request) evaluate — so a fire
/// predicted over the wire is bit-identical to the same cell of a catalog
/// campaign.
struct WorkloadRequest {
  TerrainFamily terrain = TerrainFamily::kPlains;
  int size = 32;                 ///< grid edge, >= 16
  WeatherRegime weather = WeatherRegime::kSteady;
  IgnitionPattern ignition = IgnitionPattern::kCenter;
  std::uint64_t seed = 2022;     ///< the workload seed (terrain + truth)
  int steps = 4;                 ///< ground-truth instants t_1..t_steps (>= 2)
  double step_minutes = 45.0;
  double observation_noise = 0.02;
};

/// Throws InvalidArgument when make_workload(request) would refuse the
/// fields; builds no terrain.
void validate_workload_request(const WorkloadRequest& request);

/// Build the workload for one cell. Deterministic in `request`; the name is
/// "<terrain><size>-<weather>-<ignition>" (generate_catalog appends its
/// replicate suffix). Throws InvalidArgument on out-of-range fields.
Workload make_workload(const WorkloadRequest& request);

/// Compact description of a workload family; see generate_catalog().
struct CatalogSpec {
  std::vector<TerrainFamily> terrains{TerrainFamily::kPlains,
                                      TerrainFamily::kHills};
  std::vector<int> sizes{32};  ///< grid edges, each >= 16
  std::vector<WeatherRegime> weather{WeatherRegime::kSteady,
                                     WeatherRegime::kWindShift};
  std::vector<IgnitionPattern> ignitions{IgnitionPattern::kCenter,
                                         IgnitionPattern::kOffset};
  int seeds_per_case = 1;        ///< seed replicates per combination
  std::uint64_t base_seed = 2022;
  int steps = 4;                 ///< ground-truth instants t_1..t_steps (>= 2)
  double step_minutes = 45.0;
  double observation_noise = 0.02;
  std::size_t max_workloads = 0;  ///< truncate the enumeration; 0 = no cap
};

/// Workloads generate_catalog(spec) will produce (before max_workloads).
std::size_t catalog_size(const CatalogSpec& spec);

/// Enumerate the cross product into named workloads
/// ("<terrain><size>-<weather>-<ignition>-s<rep>"), terrain-major order.
/// Deterministic in `spec`; every workload carries a distinct derived seed.
std::vector<Workload> generate_catalog(const CatalogSpec& spec);

/// The outbreak cell a pattern maps to on a size x size grid.
CellIndex ignition_cell(IgnitionPattern pattern, int size);

/// Parse "key=value" lines (comma-separated lists for the set-valued keys):
///   terrains   plains,hills,rugged        sizes     32,48
///   weather    steady,wind_shift,diurnal  ignitions center,offset,edge,corner
///   seeds      replicates per cell        base_seed uint64
///   steps / step_minutes / noise / limit
/// Blank lines and '#' comments are ignored; unknown keys throw
/// InvalidArgument naming the offending line.
CatalogSpec parse_catalog_spec(std::istream& in);
CatalogSpec parse_catalog_spec(const std::string& text);

}  // namespace essns::synth
