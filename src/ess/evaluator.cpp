#include "ess/evaluator.hpp"

#include "common/error.hpp"
#include "ess/fitness.hpp"

namespace essns::ess {

ScenarioEvaluator::ScenarioEvaluator(const firelib::FireEnvironment& env,
                                     unsigned workers)
    : service_(env, workers) {}

void ScenarioEvaluator::set_step(const StepContext& context) {
  ESSNS_REQUIRE(context.start_map && context.target_map,
                "step context maps must be set");
  ESSNS_REQUIRE(context.end_time > context.start_time,
                "step interval must have positive length");
  context_ = context;
  burned_memo_.clear();
}

double ScenarioEvaluator::evaluate_scenario(
    const firelib::Scenario& scenario) {
  ESSNS_REQUIRE(context_.start_map, "set_step must be called before evaluate");
  const firelib::IgnitionMap simulated =
      simulate(scenario, *context_.start_map, context_.end_time);
  return jaccard_at(*context_.target_map, simulated, context_.end_time,
                    context_.start_time);
}

firelib::IgnitionMap ScenarioEvaluator::simulate(
    const firelib::Scenario& scenario, const firelib::IgnitionMap& start,
    double end_time) {
  return service_.simulate(scenario, start, end_time);
}

Grid<double> ScenarioEvaluator::burn_probability(
    const std::vector<firelib::Scenario>& scenarios,
    const firelib::IgnitionMap& start, double end_time) {
  const bool current_step =
      &start == context_.start_map && end_time == context_.end_time;
  std::vector<const BurnedCells*> records;
  records.reserve(scenarios.size());
  std::vector<firelib::Scenario> missing;
  for (const firelib::Scenario& scenario : scenarios) {
    if (current_step) {
      const auto it = burned_memo_.find(cache::make_scenario_key(scenario));
      if (it != burned_memo_.end()) {
        records.push_back(&it->second);
        continue;
      }
    }
    missing.push_back(scenario);
  }
  // Each cell's count is a sum of 1.0s, exact in any order, so records and
  // freshly simulated maps mix without changing a bit of the result.
  std::vector<BurnedCells> simulated;
  simulated.reserve(missing.size());  // records point into it
  for (const firelib::IgnitionMap& map :
       service_.simulate_batch(missing, start, end_time)) {
    simulated.push_back(pack_burned(map, end_time));
    records.push_back(&simulated.back());
  }
  return aggregate_burned(records);
}

std::vector<double> ScenarioEvaluator::evaluate_batch(
    const std::vector<ea::Genome>& genomes) {
  ESSNS_REQUIRE(context_.start_map, "set_step must be called before evaluate");
  const auto& space = firelib::ScenarioSpace::table1();
  std::vector<firelib::Scenario> scenarios;
  scenarios.reserve(genomes.size());
  for (const ea::Genome& genome : genomes)
    scenarios.push_back(space.decode(genome));
  std::vector<SimulationResult> results = service_.run_batch(fitness_requests(
      scenarios, *context_.start_map, *context_.target_map,
      context_.start_time, context_.end_time));
  std::vector<double> fitness;
  fitness.reserve(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    fitness.push_back(results[i].fitness);
    // Past the backstop a scenario simply has no record, and
    // burn_probability simulates it.
    if (!results[i].burned.empty() &&
        burned_memo_.size() < burned_memo_capacity_)
      burned_memo_.try_emplace(cache::make_scenario_key(scenarios[i]),
                               std::move(results[i].burned));
  }
  return fitness;
}

ea::BatchEvaluator ScenarioEvaluator::batch_evaluator() {
  return [this](const std::vector<ea::Genome>& genomes) {
    return evaluate_batch(genomes);
  };
}

}  // namespace essns::ess
