#include "ess/evaluator.hpp"

#include "common/error.hpp"

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
  service_.begin_step(*context.start_map, *context.target_map,
                      context.start_time, context.end_time);
}

double ScenarioEvaluator::evaluate_scenario(
    const firelib::Scenario& scenario) {
  ESSNS_REQUIRE(context_.start_map, "set_step must be called before evaluate");
  return service_.score(scenario, *context_.start_map, *context_.target_map,
                        context_.start_time, context_.end_time);
}

firelib::IgnitionMap ScenarioEvaluator::simulate(
    const firelib::Scenario& scenario, const firelib::IgnitionMap& start,
    double end_time) {
  return service_.simulate(scenario, start, end_time);
}

Grid<double> ScenarioEvaluator::burn_probability(
    const std::vector<firelib::Scenario>& scenarios,
    const firelib::IgnitionMap& start, double end_time) {
  // Copy the step's records out first: the batch below may begin a new
  // context and drop the store they live in.
  std::vector<BurnedCells> records;
  records.reserve(scenarios.size());
  std::vector<firelib::Scenario> missing;
  const std::vector<const BurnedCells*> recorded =
      service_.step_records(scenarios, start, end_time);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (recorded[i])
      records.push_back(*recorded[i]);
    else
      missing.push_back(scenarios[i]);
  }
  // Each cell's count is a sum of 1.0s, exact in any order, so recorded and
  // freshly simulated cells mix without changing a bit of the result.
  for (BurnedCells& burned : service_.simulate_batch(missing, start, end_time))
    records.push_back(std::move(burned));
  std::vector<const BurnedCells*> pointers;
  pointers.reserve(records.size());
  for (const BurnedCells& burned : records) pointers.push_back(&burned);
  return aggregate_burned(pointers);
}

std::vector<double> ScenarioEvaluator::evaluate_batch(
    const std::vector<ea::Genome>& genomes) {
  ESSNS_REQUIRE(context_.start_map, "set_step must be called before evaluate");
  const auto& space = firelib::ScenarioSpace::table1();
  std::vector<firelib::Scenario> scenarios;
  scenarios.reserve(genomes.size());
  for (const ea::Genome& genome : genomes)
    scenarios.push_back(space.decode(genome));
  return service_.fitness_batch(scenarios, *context_.start_map,
                               *context_.target_map, context_.start_time,
                               context_.end_time);
}

ea::BatchEvaluator ScenarioEvaluator::batch_evaluator() {
  return [this](const std::vector<ea::Genome>& genomes) {
    return evaluate_batch(genomes);
  };
}

}  // namespace essns::ess
