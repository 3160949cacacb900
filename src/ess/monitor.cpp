#include "ess/monitor.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "ess/fitness.hpp"
#include "ess/statistical.hpp"

namespace essns::ess {

double EssimResult::mean_quality() const {
  if (steps.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& s : steps) sum += s.prediction_quality;
  return sum / static_cast<double>(steps.size());
}

EssimSystem::EssimSystem(const firelib::FireEnvironment& env,
                         const synth::GroundTruth& truth, EssimConfig config)
    : env_(&env), truth_(&truth), config_(config) {
  ESSNS_REQUIRE(config.islands >= 1, "need at least one island");
  ESSNS_REQUIRE(truth.steps() >= 2,
                "ESSIM needs >= 2 steps (calibration + prediction)");
}

EssimResult EssimSystem::run(Rng& rng) {
  EssimResult result;
  const std::unique_ptr<parallel::MasterWorker> lanes =
      parallel::make_job_lanes(config_.workers);
  ScenarioEvaluator evaluator(*env_, lanes.get());
  Observations observations(*truth_, false);
  const auto& space = firelib::ScenarioSpace::table1();
  const auto& lines = truth_->fire_lines;

  for (int n = 1; n + 1 <= truth_->steps(); ++n) {
    const auto un = static_cast<std::size_t>(n);
    const double t_prev = truth_->time_of(n - 1);
    const double t_now = truth_->time_of(n);
    const double t_next = truth_->time_of(n + 1);

    evaluator.set_step(observations, n);
    auto batch = evaluator.batch_evaluator();

    const auto real_now = firelib::burned_mask(lines[un], t_now);
    const auto preburned_now = firelib::burned_mask(lines[un - 1], t_prev);

    // --- Each island Master: OS, then its own SS + CS. ---
    struct IslandState {
      std::vector<firelib::Scenario> scenarios;
      KignSearchResult kign;
    };
    std::vector<IslandState> islands;
    EssimStepReport report;
    report.step = n + 1;

    for (int i = 0; i < config_.islands; ++i) {
      // One single-island optimizer per Master keeps the inner evolution
      // identical to IslandOptimizer's; migration happens within it when
      // islands > 1 there, here each Master is independent (the Monitor
      // level is what we are adding).
      IslandOptimizer::Options opt;
      opt.islands = 1;
      opt.migration_interval = config_.migration_interval;
      opt.migrants = 0;
      opt.inner = config_.inner;
      opt.ga = config_.ga;
      opt.de = config_.de;
      opt.de_tuning = config_.de_tuning;
      IslandOptimizer master(opt);
      Rng stream = rng.split(static_cast<std::uint64_t>(n) * 131 +
                             static_cast<std::uint64_t>(i) + 1);
      OptimizationOutcome outcome =
          master.optimize(firelib::kParamCount, batch, config_.stop, stream);

      IslandState state;
      state.scenarios.reserve(outcome.solutions.size());
      for (const auto& ind : outcome.solutions)
        state.scenarios.push_back(space.decode(ind.genome));
      const Grid<double> probability =
          evaluator.burn_probability(state.scenarios, observations, n - 1,
                                     t_now);
      state.kign = search_kign(probability, real_now, preburned_now,
                               config_.kign_candidates);
      report.islands.push_back(
          {i, state.kign.kign, state.kign.fitness});
      islands.push_back(std::move(state));
    }

    // --- Monitor: select the island whose matrix calibrated best. ---
    int best = 0;
    for (int i = 1; i < config_.islands; ++i)
      if (report.islands[static_cast<std::size_t>(i)].fitness >
          report.islands[static_cast<std::size_t>(best)].fitness)
        best = i;
    report.selected_island = best;
    report.kign = islands[static_cast<std::size_t>(best)].kign.kign;

    // --- Monitor produces the current step prediction (PS), batched over
    // the same worker pool as the OS (see evaluator.hpp). ---
    const Grid<double> probability_next = evaluator.burn_probability(
        islands[static_cast<std::size_t>(best)].scenarios, observations, n,
        t_next);
    const auto predicted = apply_kign(probability_next, report.kign);

    const auto real_next = firelib::burned_mask(lines[un + 1], t_next);
    const auto preburned_next = firelib::burned_mask(lines[un], t_now);
    report.prediction_quality = jaccard(real_next, predicted, preburned_next);
    result.steps.push_back(std::move(report));
  }
  return result;
}

}  // namespace essns::ess
