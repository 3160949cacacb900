#include "synth/catalog.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "synth/weather.hpp"

namespace essns::synth {
namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(value);
  while (std::getline(in, item, ',')) {
    item = trim(item);
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

TerrainFamily parse_terrain(const std::string& name) {
  const auto family = parse_terrain_family(name);
  if (!family) throw InvalidArgument("unknown terrain family: " + name);
  return *family;
}

WeatherRegime parse_weather(const std::string& name) {
  const auto regime = parse_weather_regime(name);
  if (!regime) throw InvalidArgument("unknown weather regime: " + name);
  return *regime;
}

IgnitionPattern parse_ignition(const std::string& name) {
  const auto pattern = parse_ignition_pattern(name);
  if (!pattern) throw InvalidArgument("unknown ignition pattern: " + name);
  return *pattern;
}

void validate(const CatalogSpec& spec) {
  ESSNS_REQUIRE(!spec.terrains.empty(), "catalog needs >= 1 terrain family");
  ESSNS_REQUIRE(!spec.sizes.empty(), "catalog needs >= 1 map size");
  ESSNS_REQUIRE(!spec.weather.empty(), "catalog needs >= 1 weather regime");
  ESSNS_REQUIRE(!spec.ignitions.empty(),
                "catalog needs >= 1 ignition pattern");
  ESSNS_REQUIRE(spec.seeds_per_case >= 1, "seeds_per_case >= 1");
  ESSNS_REQUIRE(spec.steps >= 2,
                "catalog steps >= 2 (pipeline needs calibration + prediction)");
  ESSNS_REQUIRE(spec.step_minutes > 0.0, "step_minutes must be positive");
  ESSNS_REQUIRE(
      spec.observation_noise >= 0.0 && spec.observation_noise < 1.0,
      "observation noise in [0,1)");
  for (int size : spec.sizes)
    ESSNS_REQUIRE(size >= 16, "catalog map sizes must be >= 16 cells");
}

Workload make_terrain(TerrainFamily family, int size, std::uint64_t seed) {
  switch (family) {
    case TerrainFamily::kPlains: return make_plains(size, seed);
    case TerrainFamily::kHills: return make_hills(size, seed);
    case TerrainFamily::kRugged: return make_rugged(size, seed);
  }
  throw InvalidArgument("unknown terrain family enumerator");
}

}  // namespace

std::optional<TerrainFamily> parse_terrain_family(const std::string& name) {
  if (name == "plains") return TerrainFamily::kPlains;
  if (name == "hills") return TerrainFamily::kHills;
  if (name == "rugged") return TerrainFamily::kRugged;
  return std::nullopt;
}

std::optional<WeatherRegime> parse_weather_regime(const std::string& name) {
  if (name == "steady") return WeatherRegime::kSteady;
  if (name == "wind_shift") return WeatherRegime::kWindShift;
  if (name == "diurnal") return WeatherRegime::kDiurnal;
  return std::nullopt;
}

std::optional<IgnitionPattern> parse_ignition_pattern(
    const std::string& name) {
  if (name == "center") return IgnitionPattern::kCenter;
  if (name == "offset") return IgnitionPattern::kOffset;
  if (name == "edge") return IgnitionPattern::kEdge;
  if (name == "corner") return IgnitionPattern::kCorner;
  return std::nullopt;
}

const char* to_string(TerrainFamily family) {
  switch (family) {
    case TerrainFamily::kPlains: return "plains";
    case TerrainFamily::kHills: return "hills";
    case TerrainFamily::kRugged: return "rugged";
  }
  return "?";
}

const char* to_string(WeatherRegime regime) {
  switch (regime) {
    case WeatherRegime::kSteady: return "steady";
    case WeatherRegime::kWindShift: return "wind_shift";
    case WeatherRegime::kDiurnal: return "diurnal";
  }
  return "?";
}

const char* to_string(IgnitionPattern pattern) {
  switch (pattern) {
    case IgnitionPattern::kCenter: return "center";
    case IgnitionPattern::kOffset: return "offset";
    case IgnitionPattern::kEdge: return "edge";
    case IgnitionPattern::kCorner: return "corner";
  }
  return "?";
}

std::size_t catalog_size(const CatalogSpec& spec) {
  return spec.terrains.size() * spec.sizes.size() * spec.weather.size() *
         spec.ignitions.size() * static_cast<std::size_t>(spec.seeds_per_case);
}

CellIndex ignition_cell(IgnitionPattern pattern, int size) {
  ESSNS_REQUIRE(size >= 16, "ignition patterns need a grid of >= 16 cells");
  switch (pattern) {
    case IgnitionPattern::kCenter: return {size / 2, size / 2};
    case IgnitionPattern::kOffset: return {size / 3, (2 * size) / 3};
    case IgnitionPattern::kEdge: return {size / 2, 2};
    case IgnitionPattern::kCorner: return {3, 3};
  }
  throw InvalidArgument("unknown ignition pattern enumerator");
}

void validate_workload_request(const WorkloadRequest& request) {
  ESSNS_REQUIRE(request.size >= 16, "workload map size must be >= 16 cells");
  ESSNS_REQUIRE(request.steps >= 2,
                "workload steps >= 2 (pipeline needs calibration + "
                "prediction)");
  ESSNS_REQUIRE(request.step_minutes > 0.0, "step_minutes must be positive");
  ESSNS_REQUIRE(
      request.observation_noise >= 0.0 && request.observation_noise < 1.0,
      "observation noise in [0,1)");
}

Workload make_workload(const WorkloadRequest& request) {
  validate_workload_request(request);
  Workload workload =
      make_terrain(request.terrain, request.size, request.seed);
  GroundTruthConfig cfg = workload.truth_config;
  cfg.steps = request.steps;
  cfg.step_minutes = request.step_minutes;
  cfg.observation_noise = request.observation_noise;
  cfg.ignition = ignition_cell(request.ignition, request.size);
  cfg.drift_sigma = 0.0;

  switch (request.weather) {
    case WeatherRegime::kSteady:
      break;
    case WeatherRegime::kWindShift:
      cfg.drift_sigma = 0.08;
      break;
    case WeatherRegime::kDiurnal: {
      // Damp the morning moistures (as make_diurnal does) so the
      // fire survives into the afternoon wind peak.
      cfg.hidden.m1 = std::max(cfg.hidden.m1, 14.0);
      cfg.hidden.m10 = std::max(cfg.hidden.m10, 15.0);
      cfg.hidden.m100 = std::max(cfg.hidden.m100, 16.0);
      DiurnalWeatherConfig weather;
      weather.wind_base_mph = 5.0;
      weather.wind_diurnal_mph = 4.0;
      Rng weather_rng(combine_seed(request.seed, 0xd1u));
      workload.scenario_sequence =
          diurnal_scenarios(weather, cfg.hidden, /*start_hour=*/10.0,
                            cfg.step_minutes, cfg.steps, weather_rng);
      break;
    }
  }

  workload.truth_config = cfg;
  workload.name = std::string(to_string(request.terrain)) +
                  std::to_string(request.size) + "-" +
                  to_string(request.weather) + "-" +
                  to_string(request.ignition);
  return workload;
}

std::vector<Workload> generate_catalog(const CatalogSpec& spec) {
  validate(spec);

  std::vector<Workload> out;
  out.reserve(spec.max_workloads != 0
                  ? std::min(spec.max_workloads, catalog_size(spec))
                  : catalog_size(spec));
  for (std::size_t ti = 0; ti < spec.terrains.size(); ++ti) {
    for (std::size_t si = 0; si < spec.sizes.size(); ++si) {
      for (std::size_t wi = 0; wi < spec.weather.size(); ++wi) {
        for (std::size_t ii = 0; ii < spec.ignitions.size(); ++ii) {
          for (int rep = 0; rep < spec.seeds_per_case; ++rep) {
            if (spec.max_workloads != 0 && out.size() >= spec.max_workloads)
              return out;

            // Chain every dimension into the seed so replicate 0 of one cell
            // never collides with replicate 1 of a neighbouring cell.
            std::uint64_t seed = combine_seed(spec.base_seed, ti);
            seed = combine_seed(seed, si);
            seed = combine_seed(seed, wi);
            seed = combine_seed(seed, ii);
            seed = combine_seed(seed, static_cast<std::uint64_t>(rep));

            WorkloadRequest request;
            request.terrain = spec.terrains[ti];
            request.size = spec.sizes[si];
            request.weather = spec.weather[wi];
            request.ignition = spec.ignitions[ii];
            request.seed = seed;
            request.steps = spec.steps;
            request.step_minutes = spec.step_minutes;
            request.observation_noise = spec.observation_noise;

            Workload workload = make_workload(request);
            workload.name += "-s" + std::to_string(rep);
            out.push_back(std::move(workload));
          }
        }
      }
    }
  }
  return out;
}

CatalogSpec parse_catalog_spec(std::istream& in) {
  CatalogSpec spec;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string stripped = trim(line);
    if (stripped.empty() || stripped.front() == '#') continue;
    const auto eq = stripped.find('=');
    ESSNS_REQUIRE(eq != std::string::npos,
                  "catalog line " + std::to_string(line_number) +
                      " is not key=value: " + stripped);
    const std::string key = trim(stripped.substr(0, eq));
    const std::string value = trim(stripped.substr(eq + 1));
    ESSNS_REQUIRE(!value.empty(), "catalog key '" + key + "' has empty value");

    auto int_or_throw = [&](const std::string& text, int lo) {
      const auto v = essns::parse_int(text);
      ESSNS_REQUIRE(v.has_value() && *v >= lo,
                    "bad integer for catalog key '" + key + "': " + text);
      return *v;
    };
    auto as_int = [&](int lo) { return int_or_throw(value, lo); };
    auto as_uint64 = [&] {
      const auto v = essns::parse_uint64(value);
      ESSNS_REQUIRE(v.has_value(), "bad unsigned integer for catalog key '" +
                                       key + "': " + value);
      return *v;
    };
    auto as_double = [&] {
      const auto v = essns::parse_double(value);
      ESSNS_REQUIRE(v.has_value(),
                    "bad finite number for catalog key '" + key +
                        "': " + value);
      return *v;
    };

    if (key == "terrains") {
      spec.terrains.clear();
      for (const auto& name : split_list(value))
        spec.terrains.push_back(parse_terrain(name));
    } else if (key == "sizes") {
      spec.sizes.clear();
      for (const auto& name : split_list(value))
        spec.sizes.push_back(int_or_throw(name, 16));
    } else if (key == "weather") {
      spec.weather.clear();
      for (const auto& name : split_list(value))
        spec.weather.push_back(parse_weather(name));
    } else if (key == "ignitions") {
      spec.ignitions.clear();
      for (const auto& name : split_list(value))
        spec.ignitions.push_back(parse_ignition(name));
    } else if (key == "seeds") {
      spec.seeds_per_case = as_int(1);
    } else if (key == "base_seed") {
      spec.base_seed = as_uint64();
    } else if (key == "steps") {
      spec.steps = as_int(2);
    } else if (key == "step_minutes") {
      spec.step_minutes = as_double();
    } else if (key == "noise") {
      spec.observation_noise = as_double();
    } else if (key == "limit") {
      spec.max_workloads = static_cast<std::size_t>(as_int(0));
    } else {
      throw InvalidArgument("unknown catalog key: " + key);
    }
  }
  validate(spec);
  return spec;
}

CatalogSpec parse_catalog_spec(const std::string& text) {
  std::istringstream in(text);
  return parse_catalog_spec(in);
}

}  // namespace essns::synth
