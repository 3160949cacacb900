// EXP-B — behaviour-characterization ablation (§IV: "any characterization
// of the behavior of the solutions"): the same ESS-NS pipeline run with
// three behaviour distances driving Eq. (1):
//   eq2        — the paper's fitness-difference distance,
//   genotypic  — Euclidean in scenario-genome space,
//   burn-map   — ess::burn_descriptor (burned fraction + centroid drift),
// plus the hybrid fitness-novelty blend. Reported: per-step prediction
// quality on plains and wind_shift.
//
// Expected shape: all variants comparable on the stationary case; map-based
// behaviour at least as good on the drifting case (it separates scenarios
// that Eq. (2) confounds), at ~2x simulation cost.
#include <cstdio>

#include "common/table.hpp"
#include "ess/behavior.hpp"
#include "ess/fitness.hpp"
#include "ess/pipeline.hpp"
#include "ess/statistical.hpp"
#include "synth/workloads.hpp"

namespace {

using namespace essns;

// NS optimizer whose distance (and optional descriptor) is configured per
// pipeline step through the evaluator. Descriptor needs the step's start
// map, so it re-binds inside optimize() via the captured evaluator state.
class BehaviorNsOptimizer final : public ess::Optimizer {
 public:
  enum class Mode { kEq2, kGenotypic, kBurnMap, kHybrid };

  BehaviorNsOptimizer(Mode mode, ess::ScenarioEvaluator* evaluator,
                      const synth::GroundTruth* truth)
      : mode_(mode), evaluator_(evaluator), truth_(truth) {}

  std::string name() const override {
    switch (mode_) {
      case Mode::kEq2: return "ESS-NS eq2";
      case Mode::kGenotypic: return "ESS-NS genotypic";
      case Mode::kBurnMap: return "ESS-NS burn-map";
      case Mode::kHybrid: return "ESS-NS hybrid";
    }
    return "?";
  }

  void set_step(int n) { step_ = n; }

  ess::OptimizationOutcome optimize(std::size_t dim,
                                    const ea::BatchEvaluator& evaluate,
                                    const ea::StopCondition& stop,
                                    Rng& rng) override {
    core::NsGaConfig cfg;
    cfg.population_size = 20;
    cfg.offspring_count = 20;
    core::BehaviorDistance dist = core::fitness_distance;
    switch (mode_) {
      case Mode::kEq2:
        break;
      case Mode::kGenotypic:
        dist = core::genotypic_distance;
        break;
      case Mode::kHybrid:
        cfg.fitness_blend_weight = 0.5;
        dist = core::genotypic_distance;
        break;
      case Mode::kBurnMap: {
        const auto un = static_cast<std::size_t>(step_);
        cfg.descriptor = ess::make_burn_descriptor_fn(
            *evaluator_, truth_->fire_lines[un - 1], truth_->time_of(step_ - 1),
            truth_->time_of(step_));
        dist = core::descriptor_distance;
        break;
      }
    }
    core::NsGaResult r = core::run_ns_ga(cfg, dim, evaluate, stop, rng, dist);
    ess::OptimizationOutcome out;
    out.solutions = std::move(r.best_set);
    if (!out.solutions.empty()) out.best = out.solutions.front();
    out.generations = r.generations;
    out.evaluations = r.evaluations;
    return out;
  }

 private:
  Mode mode_;
  ess::ScenarioEvaluator* evaluator_;
  const synth::GroundTruth* truth_;
  int step_ = 1;
};

}  // namespace

int main() {
  constexpr int kSize = 48;
  for (auto maker : {&synth::make_plains, &synth::make_wind_shift}) {
    synth::Workload workload = maker(kSize, 11);
    Rng truth_rng(2022);
    const synth::GroundTruth truth = synth::generate_ground_truth(
        workload.environment, workload.truth_config, truth_rng);

    TextTable table("EXP-B behaviour characterization — case '" +
                    workload.name + "'");
    std::vector<std::string> header{"Behaviour distance"};
    for (int s = 2; s <= truth.steps(); ++s)
      header.push_back(std::string("t").append(std::to_string(s)));
    header.push_back("mean");
    table.set_header(header);

    using Mode = BehaviorNsOptimizer::Mode;
    for (Mode mode : {Mode::kEq2, Mode::kGenotypic, Mode::kBurnMap,
                      Mode::kHybrid}) {
      // The burn-map mode needs access to the pipeline's evaluator; run the
      // stages manually per step, mirroring PredictionPipeline.
      ess::ScenarioEvaluator evaluator(workload.environment);
      ess::Observations observations(truth, false);
      BehaviorNsOptimizer optimizer(mode, &evaluator, &truth);
      Rng rng(7);

      std::vector<double> qualities;
      const auto& space = firelib::ScenarioSpace::table1();
      for (int n = 1; n + 1 <= truth.steps(); ++n) {
        const auto un = static_cast<std::size_t>(n);
        const double t_prev = truth.time_of(n - 1);
        const double t_now = truth.time_of(n);
        const double t_next = truth.time_of(n + 1);
        evaluator.set_step(observations, n);
        optimizer.set_step(n);
        auto batch = evaluator.batch_evaluator();
        auto outcome =
            optimizer.optimize(firelib::kParamCount, batch, {15, 0.95}, rng);

        std::vector<firelib::Scenario> scenarios;
        for (const auto& ind : outcome.solutions)
          scenarios.push_back(space.decode(ind.genome));
        const auto probability =
            evaluator.burn_probability(scenarios, observations, n - 1, t_now);
        const auto kign = ess::search_kign(
            probability, firelib::burned_mask(truth.fire_lines[un], t_now),
            firelib::burned_mask(truth.fire_lines[un - 1], t_prev), 100);

        const auto prob_next =
            evaluator.burn_probability(scenarios, observations, n, t_next);
        const auto predicted = ess::apply_kign(prob_next, kign.kign);
        qualities.push_back(ess::jaccard(
            firelib::burned_mask(truth.fire_lines[un + 1], t_next), predicted,
            firelib::burned_mask(truth.fire_lines[un], t_now)));
      }

      std::vector<std::string> row{optimizer.name()};
      double mean = 0.0;
      for (double q : qualities) {
        row.push_back(TextTable::num(q));
        mean += q;
      }
      row.push_back(TextTable::num(mean / static_cast<double>(qualities.size())));
      table.add_row(row);
    }
    table.print();
    std::printf("\n");
  }
  return 0;
}
