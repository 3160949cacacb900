// Failure injection: the system must fail loudly and cleanly — no hangs, no
// torn state — when a component misbehaves (throwing simulators, lying
// optimizers, malformed evaluator output).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "ea/ga.hpp"
#include "ea/landscapes.hpp"
#include "ess/pipeline.hpp"
#include "parallel/master_worker.hpp"
#include "synth/workloads.hpp"

namespace essns {
namespace {

TEST(FailureInjectionTest, ThrowingEvaluatorPropagatesThroughGa) {
  Rng rng(1);
  ea::GaConfig cfg;
  int calls = 0;
  const ea::BatchEvaluator flaky = [&](const std::vector<ea::Genome>& g) {
    if (++calls >= 3) throw std::runtime_error("simulator crashed");
    return std::vector<double>(g.size(), 0.5);
  };
  EXPECT_THROW(ea::run_ga(cfg, 3, flaky, {10, 2.0}, rng), std::runtime_error);
}

TEST(FailureInjectionTest, WrongSizedEvaluatorOutputRejected) {
  Rng rng(2);
  ea::GaConfig cfg;
  const ea::BatchEvaluator liar = [](const std::vector<ea::Genome>& g) {
    return std::vector<double>(g.size() + 1, 0.5);  // one extra value
  };
  EXPECT_THROW(ea::run_ga(cfg, 3, liar, {5, 2.0}, rng), InvalidArgument);
}

TEST(FailureInjectionTest, MasterWorkerSurvivesRepeatedWorkerFailures) {
  parallel::MasterWorker mw(3);
  const auto evaluate = [&mw](const std::vector<int>& tasks) {
    std::vector<int> out(tasks.size());
    mw.run(tasks.size(), [&](unsigned, std::size_t i) {
      if (tasks[i] % 7 == 0) throw std::runtime_error("bad input");
      out[i] = tasks[i];
    });
    return out;
  };
  for (int round = 0; round < 5; ++round) {
    std::vector<int> tasks;
    for (int i = 1; i <= 20; ++i) tasks.push_back(i);
    EXPECT_THROW(evaluate(tasks), std::runtime_error);
    // Pool remains functional for clean batches.
    EXPECT_EQ(evaluate({1, 2, 3}), (std::vector<int>{1, 2, 3}));
  }
}

class EmptyOptimizer final : public ess::Optimizer {
 public:
  std::string name() const override { return "empty"; }
  ess::OptimizationOutcome optimize(std::size_t,
                                    const ea::BatchEvaluator&,
                                    const ea::StopCondition&, Rng&) override {
    return {};  // returns no solutions — a contract violation
  }
};

TEST(FailureInjectionTest, PipelineRejectsEmptySolutionSet) {
  synth::Workload workload = synth::make_plains(24);
  Rng rng(3);
  const synth::GroundTruth truth = synth::generate_ground_truth(
      workload.environment, workload.truth_config, rng);
  ess::PipelineConfig config;
  ess::PredictionPipeline pipeline(workload.environment, truth, config);
  EmptyOptimizer empty;
  EXPECT_THROW(pipeline.run(empty, rng), InvalidArgument);
}

class UnevaluatedOptimizer final : public ess::Optimizer {
 public:
  std::string name() const override { return "raw"; }
  ess::OptimizationOutcome optimize(std::size_t dim,
                                    const ea::BatchEvaluator&,
                                    const ea::StopCondition&,
                                    Rng& rng) override {
    // Valid genomes but NaN fitness: the pipeline must still run (it sorts
    // by fitness but only needs the genomes for the SS).
    ess::OptimizationOutcome out;
    out.solutions = ea::random_population(4, dim, rng);
    for (auto& s : out.solutions) s.fitness = 0.0;  // pretend evaluated
    out.best = out.solutions.front();
    return out;
  }
};

TEST(FailureInjectionTest, PipelineToleratesMinimalOptimizer) {
  synth::Workload workload = synth::make_plains(24);
  Rng rng(4);
  const synth::GroundTruth truth = synth::generate_ground_truth(
      workload.environment, workload.truth_config, rng);
  ess::PipelineConfig config;
  ess::PredictionPipeline pipeline(workload.environment, truth, config);
  UnevaluatedOptimizer raw;
  const auto result = pipeline.run(raw, rng);
  EXPECT_EQ(result.steps.size(), 4u);  // random scenarios still aggregate
}

TEST(FailureInjectionTest, ParallelEvaluatorPropagatesSimulationErrors) {
  // An out-of-bounds genome decodes to a clamped scenario, so legal inputs
  // cannot crash the simulator. Force a failure through the evaluator's
  // contract instead: a batch with mismatched genome length.
  synth::Workload workload = synth::make_plains(24);
  Rng rng(5);
  const synth::GroundTruth truth = synth::generate_ground_truth(
      workload.environment, workload.truth_config, rng);
  const auto lanes = parallel::make_job_lanes(2);
  ess::ScenarioEvaluator evaluator(workload.environment, lanes.get());
  ess::Observations observations(truth, false);
  evaluator.set_step(observations, 1);
  auto evaluate = evaluator.batch_evaluator();
  std::vector<ea::Genome> bad_batch{ea::Genome(3, 0.5)};  // wrong dimension
  EXPECT_THROW(evaluate(bad_batch), InvalidArgument);
  // Evaluator still usable afterwards.
  std::vector<ea::Genome> good_batch{ea::Genome(9, 0.5)};
  EXPECT_EQ(evaluate(good_batch).size(), 1u);
}

TEST(FailureInjectionTest, StopConditionZeroGenerationsIsValid) {
  Rng rng(6);
  ea::GaConfig cfg;
  const auto r = ea::run_ga(cfg, 3,
                            ea::landscapes::batch(ea::landscapes::sphere),
                            {0, 2.0}, rng);
  EXPECT_EQ(r.generations, 0);
  EXPECT_EQ(r.population.size(), cfg.population_size);
  EXPECT_TRUE(r.best.evaluated());
}

}  // namespace
}  // namespace essns
