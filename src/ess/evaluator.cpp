#include "ess/evaluator.hpp"

#include "common/error.hpp"

namespace essns::ess {

ScenarioEvaluator::ScenarioEvaluator(const firelib::FireEnvironment& env,
                                     parallel::MasterWorker* lanes)
    : service_(env, lanes) {}

void ScenarioEvaluator::set_step(Observations& observations, int line) {
  const std::vector<double>& times = observations.digest().times;
  ESSNS_REQUIRE(line >= 1 && static_cast<std::size_t>(line) < times.size(),
                "step line out of range");
  const auto k = static_cast<std::size_t>(line);
  ESSNS_REQUIRE(times[k] > times[k - 1],
                "step interval must have positive length");
  observations_ = &observations;
  line_ = line;
  service_.begin_step(observations, line);
}

double ScenarioEvaluator::evaluate_scenario(
    const firelib::Scenario& scenario) {
  ESSNS_REQUIRE(observations_, "set_step must be called before evaluate");
  return service_.score(scenario, *observations_, line_);
}

Grid<double> ScenarioEvaluator::burn_probability(
    const std::vector<firelib::Scenario>& scenarios,
    Observations& observations, int start_line, double end_time) {
  const std::vector<const BurnedCells*> recorded =
      service_.step_records(scenarios, observations, start_line, end_time);
  // Copy the step's records out first: the batch below may begin a new
  // context and drop the store they live in.
  std::vector<BurnedCells> records;
  records.reserve(scenarios.size());
  std::vector<firelib::Scenario> missing;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (recorded[i])
      records.push_back(*recorded[i]);
    else
      missing.push_back(scenarios[i]);
  }
  // Each cell's count is a sum of 1.0s, exact in any order, so recorded and
  // freshly simulated cells mix without changing a bit of the result.
  for (BurnedCells& burned :
       service_.simulate_batch(missing, observations, start_line, end_time))
    records.push_back(std::move(burned));
  std::vector<const BurnedCells*> pointers;
  pointers.reserve(records.size());
  for (const BurnedCells& burned : records) pointers.push_back(&burned);
  return aggregate_burned(pointers);
}

std::vector<double> ScenarioEvaluator::evaluate_batch(
    const std::vector<ea::Genome>& genomes) {
  ESSNS_REQUIRE(observations_, "set_step must be called before evaluate");
  const auto& space = firelib::ScenarioSpace::table1();
  std::vector<firelib::Scenario> scenarios;
  scenarios.reserve(genomes.size());
  for (const ea::Genome& genome : genomes)
    scenarios.push_back(space.decode(genome));
  return service_.fitness_batch(scenarios, *observations_, line_);
}

ea::BatchEvaluator ScenarioEvaluator::batch_evaluator() {
  return [this](const std::vector<ea::Genome>& genomes) {
    return evaluate_batch(genomes);
  };
}

}  // namespace essns::ess
