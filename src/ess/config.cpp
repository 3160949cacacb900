#include "ess/config.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "ea/de.hpp"
#include "ea/ga.hpp"
#include "obs/session.hpp"

namespace essns::ess {
namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

/// The island methods split `population` evenly over their islands and
/// each island GA needs at least four individuals.
void require_island_population(const SearchSpec& spec) {
  const std::size_t lo = 4 * static_cast<std::size_t>(spec.islands);
  if (spec.population < lo)
    throw InvalidArgument("population expects an integer >= " +
                          std::to_string(lo) + " for " + spec.method +
                          " with islands=" + std::to_string(spec.islands) +
                          ", got '" + std::to_string(spec.population) + "'");
}

}  // namespace

const std::vector<std::string>& SearchSpec::known_methods() {
  static const std::vector<std::string> methods{
      "ess-ga", "essim-ea", "essim-de", "essim-de-tuned", "ess-ns",
      "essim-monitor"};
  return methods;
}

bool set_search_key(SearchSpec& spec, const std::string& key,
                    const std::string& value) {
  auto integer = [&](int lo) {
    const auto v = parse_int(value);
    if (!v || *v < lo)
      throw InvalidArgument(key + " expects an integer >= " +
                            std::to_string(lo) + ", got '" + value + "'");
    return *v;
  };
  if (key == "method") {
    const auto& methods = SearchSpec::known_methods();
    if (std::find(methods.begin(), methods.end(), value) == methods.end()) {
      std::string names;
      for (const auto& m : methods) names += (names.empty() ? "" : "|") + m;
      throw InvalidArgument(key + " expects " + names + ", got '" + value +
                            "'");
    }
    spec.method = value;
  } else if (key == "generations") {
    spec.generations = integer(1);
  } else if (key == "fitness_threshold") {
    const auto v = parse_double(value);
    if (!v)
      throw InvalidArgument(key + " expects a finite number, got '" + value +
                            "'");
    spec.fitness_threshold = *v;
  } else if (key == "population") {
    spec.population = static_cast<std::size_t>(integer(2));
  } else if (key == "offspring") {
    spec.offspring = static_cast<std::size_t>(integer(1));
  } else if (key == "novelty_k") {
    spec.novelty_k = integer(0);
  } else if (key == "islands") {
    spec.islands = integer(1);
  } else {
    return false;
  }
  return true;
}

void validate_job_search(const SearchSpec& spec) {
  // A spec built in code meets the same bounds as one parsed from text.
  // std::to_string renders every finite double as a finite number and
  // nan/inf as words parse_double refuses, which is all the threshold's
  // bound asks.
  SearchSpec probe;
  const std::pair<const char*, std::string> fields[] = {
      {"method", spec.method},
      {"generations", std::to_string(spec.generations)},
      {"fitness_threshold", std::to_string(spec.fitness_threshold)},
      {"population", std::to_string(spec.population)},
      {"offspring", std::to_string(spec.offspring)},
      {"novelty_k", std::to_string(spec.novelty_k)},
      {"islands", std::to_string(spec.islands)}};
  for (const auto& [key, value] : fields) set_search_key(probe, key, value);
  // A method's own floors, named by the key that sets them (the optimizer
  // checks them again when it is built, naming its config field).
  const auto at_least = [&](const char* key, std::size_t value,
                            std::size_t lo) {
    if (value < lo)
      throw InvalidArgument(std::string(key) + " expects an integer >= " +
                            std::to_string(lo) + " for " + spec.method +
                            ", got '" + std::to_string(value) + "'");
  };
  if (spec.method == "ess-ga") {
    at_least("population", spec.population, ea::GaConfig{}.elite_count + 1);
    at_least("offspring", spec.offspring, ea::kGaMinOffspring);
  } else if (spec.method == "essim-de" || spec.method == "essim-de-tuned") {
    at_least("population", spec.population, ea::kDeMinPopulation);
  } else if (spec.method == "essim-ea") {
    require_island_population(spec);
  }
  // Throws for essim-monitor, which is not an Optimizer.
  (void)make_optimizer(spec);
}

RunSpec parse_run_spec(std::istream& in) {
  RunSpec spec;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string stripped = trim(line);
    if (stripped.empty() || stripped.front() == '#') continue;
    const auto eq = stripped.find('=');
    ESSNS_REQUIRE(eq != std::string::npos,
                  "config line " + std::to_string(line_number) +
                      " is not key=value: " + stripped);
    const std::string key = trim(stripped.substr(0, eq));
    const std::string value = trim(stripped.substr(eq + 1));
    ESSNS_REQUIRE(!value.empty(), "config key '" + key + "' has empty value");

    auto as_int = [&](int lo) {
      const auto v = parse_int(value);
      ESSNS_REQUIRE(v.has_value() && *v >= lo,
                    "bad integer for config key '" + key + "': " + value);
      return *v;
    };

    if (set_search_key(spec.search, key, value)) continue;
    if (key == "workload") spec.workload = value;
    else if (key == "size") spec.size = as_int(8);
    else if (key == "seed") {
      const auto seed = parse_uint64(value);
      ESSNS_REQUIRE(seed.has_value(),
                    "bad unsigned 64-bit integer for config key 'seed': " +
                        value);
      spec.seed = *seed;
    }
    else if (key == "workers") spec.workers = static_cast<unsigned>(as_int(1));
    else if (key == "cache") {
      const auto policy = cache::parse_cache_policy(value);
      if (!policy)
        throw InvalidArgument(
            "config key 'cache' expects off|step|shared, got: " + value);
      spec.search.cache_policy = *policy;
    }
    else if (key == "cache_mem")
      spec.cache_mem_mb = static_cast<std::size_t>(as_int(1));
    else if (key == "trace")
      spec.trace_out = value == "none" ? "" : value;
    else if (key == "metrics_out")
      spec.metrics_out = value == "none" ? "" : value;
    else throw InvalidArgument("unknown config key: " + key);
  }
  ESSNS_REQUIRE(spec.workload == "plains" || spec.workload == "hills" ||
                    spec.workload == "wind_shift",
                "unknown workload: " + spec.workload);
  // essim-monitor is no Optimizer, so it skips validate_job_search; its
  // islands split the population like essim-ea's.
  if (spec.search.method == "essim-monitor")
    require_island_population(spec.search);
  else
    validate_job_search(spec.search);
  return spec;
}

RunSpec parse_run_spec(const std::string& text) {
  std::istringstream in(text);
  return parse_run_spec(in);
}

synth::Workload make_workload(const RunSpec& spec) {
  if (spec.workload == "hills") return synth::make_hills(spec.size);
  if (spec.workload == "wind_shift") return synth::make_wind_shift(spec.size);
  return synth::make_plains(spec.size);
}

std::unique_ptr<Optimizer> make_optimizer(const SearchSpec& spec) {
  if (spec.method == "ess-ga") {
    ea::GaConfig ga;
    ga.population_size = spec.population;
    ga.offspring_count = spec.offspring;
    return std::make_unique<GaOptimizer>(ga);
  }
  if (spec.method == "essim-ea") {
    IslandOptimizer::Options opt;
    opt.islands = spec.islands;
    opt.ga.population_size =
        std::max<std::size_t>(4, spec.population / static_cast<std::size_t>(spec.islands));
    opt.ga.offspring_count = opt.ga.population_size;
    opt.ga.elite_count = 1;
    return std::make_unique<IslandOptimizer>(opt);
  }
  if (spec.method == "essim-de" || spec.method == "essim-de-tuned") {
    DeOptimizer::Options opt;
    opt.de.population_size = spec.population;
    opt.with_tuning = spec.method == "essim-de-tuned";
    return std::make_unique<DeOptimizer>(opt);
  }
  if (spec.method == "ess-ns") {
    core::NsGaConfig cfg;
    cfg.population_size = spec.population;
    cfg.offspring_count = spec.offspring;
    cfg.novelty_k = spec.novelty_k;
    return std::make_unique<NsGaOptimizer>(cfg);
  }
  throw InvalidArgument("method '" + spec.method +
                        "' is not an Optimizer (use run_spec)");
}

PipelineResult run_spec(const RunSpec& spec) {
  // Run-wide observability: a no-op when both paths are empty, so plain
  // runs never touch the global recorder/registry slots.
  obs::ObsSession obs_session(spec.trace_out, spec.metrics_out);
  const SearchSpec& search = spec.search;
  synth::Workload workload = make_workload(spec);
  Rng truth_rng(spec.seed);
  const synth::GroundTruth truth = synth::generate_ground_truth(
      workload.environment, workload.truth_config, truth_rng);
  Rng rng(spec.seed ^ 0x5eedULL);

  if (search.method == "essim-monitor") {
    EssimConfig config;
    config.islands = search.islands;
    config.ga.population_size =
        std::max<std::size_t>(4, search.population / static_cast<std::size_t>(search.islands));
    config.ga.offspring_count = config.ga.population_size;
    config.ga.elite_count = 1;
    config.stop = {search.generations, search.fitness_threshold};
    config.workers = spec.workers;
    EssimSystem system(workload.environment, truth, config);
    const EssimResult essim = system.run(rng);

    PipelineResult out;
    out.optimizer_name = "ESSIM(Monitor)";
    for (const auto& step : essim.steps) {
      StepReport report;
      report.step = step.step;
      report.kign = step.kign;
      report.prediction_quality = step.prediction_quality;
      report.calibration_fitness =
          step.islands[static_cast<std::size_t>(step.selected_island)].fitness;
      out.steps.push_back(report);
    }
    obs_session.finish();  // EssimSystem's pools joined when run() returned
    return out;
  }

  PipelineConfig config;
  config.stop = {search.generations, search.fitness_threshold};
  config.workers = spec.workers;
  config.cache_policy = search.cache_policy;
  config.cache_mem_bytes = spec.cache_mem_mb << 20;
  config.max_solution_maps = search.max_solution_maps;
  PredictionPipeline pipeline(workload.environment, truth, config);
  auto optimizer = make_optimizer(search);
  PipelineResult result = pipeline.run(*optimizer, rng);
  obs_session.finish();  // the pipeline's evaluator pool is still alive, but
                         // idle: run() has returned, no thread is recording
  return result;
}

}  // namespace essns::ess
