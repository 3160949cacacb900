// EXP-K — Key Ignition Value calibration (the S_Kign block of Fig. 1 and the
// CS box of Fig. 2): sensitivity of prediction quality to the probability
// threshold, and the cost/result of the CS grid search.
//
// Expected shape: quality as a function of Kign rises to an interior optimum
// and falls off toward both K->0 (everything predicted burned) and K->1
// (nothing predicted) — the reason a per-step calibration search exists.
#include <cstdio>

#include "common/table.hpp"
#include "ess/calibration.hpp"
#include "ess/evaluator.hpp"
#include "ess/fitness.hpp"
#include "ess/statistical.hpp"
#include "synth/workloads.hpp"

int main() {
  using namespace essns;

  synth::Workload workload = synth::make_plains(48);
  Rng truth_rng(17);
  const synth::GroundTruth truth = synth::generate_ground_truth(
      workload.environment, workload.truth_config, truth_rng);

  // Solution set: a mix of near-truth and random scenarios, as a real OS
  // would return.
  const auto& space = firelib::ScenarioSpace::table1();
  ess::ScenarioEvaluator evaluator(workload.environment);
  ess::Observations observations(truth, false);
  evaluator.set_step(observations, 1);

  Rng rng(19);
  std::vector<firelib::Scenario> scenarios;
  for (int i = 0; i < 8; ++i) {
    // Noisy copies of the hidden scenario.
    auto genome = space.encode(truth.scenario_at[1]);
    for (double& g : genome) g += rng.normal(0.0, 0.05);
    scenarios.push_back(space.decode(genome));
  }
  for (int i = 0; i < 8; ++i) scenarios.push_back(space.sample(rng));

  const Grid<double> probability = evaluator.burn_probability(
      scenarios, observations, 0, truth.step_minutes);

  const auto real = firelib::burned_mask(truth.fire_lines[1],
                                         truth.step_minutes);
  const auto preburned = firelib::burned_mask(truth.fire_lines[0], 0.0);

  TextTable curve("EXP-K quality vs Kign (16-scenario ensemble, plains step 1)");
  curve.set_header({"Kign", "fitness (Eq. 3)", "predicted burned cells"});
  for (int i = 1; i <= 20; ++i) {
    const double k = i / 20.0;
    const auto predicted = ess::apply_kign(probability, k);
    const double fit = ess::jaccard(real, predicted, preburned);
    curve.add_row({TextTable::num(k, 2), TextTable::num(fit),
                   TextTable::integer(static_cast<long long>(predicted.count_if(
                       [](std::uint8_t v) { return v != 0; })))});
  }
  curve.print();

  const ess::KignSearchResult search =
      ess::search_kign(probability, real, preburned, 100);
  std::printf(
      "\nS_Kign grid search (100 candidates): Kign=%.2f fitness=%.3f "
      "(%d thresholds evaluated)\n",
      search.kign, search.fitness, search.evaluated);
  return 0;
}
