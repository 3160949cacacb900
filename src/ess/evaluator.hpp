// ScenarioEvaluator: the bridge between the metaheuristics (which see
// normalized genomes and fitness values) and the fire simulator (which sees
// scenarios and ignition maps).
//
// The paper parallelizes only this component: "parallelism will only be
// implemented in the evaluation of the scenarios, i.e., in the simulation
// process and subsequent computation of the fitness function" (§III-B).
// This implementation supersedes that scoping: all simulation goes through
// one SimulationService on borrowed Master/Worker lanes, so the Statistical
// and Prediction stages share the OS-Worker lanes (the Fig. 1/3 OS-Master
// -> OS-Worker message flow). Without lanes everything runs inline, and
// results are bit-identical across lane counts.
//
// Fire lines come in only as Observations (ess/observation.hpp): a step is
// a line index of one Observations object, and so is the start of every
// burn-probability pass.
//
// The Statistical Stage aggregates the OS's solution set over the interval
// the OS just searched, and the OS has already simulated every member of it.
// So the service's step store keeps the cells each simulation burned (keyed
// by scenario), and burn_probability() counts those records instead of
// simulating again. Scenarios without a record — the PS's forward interval,
// or shared-cache hits that ran no simulation — still go through the
// service's burned-cell batch.
#pragma once

#include "ea/individual.hpp"
#include "ess/simulation_service.hpp"
#include "ess/statistical.hpp"

namespace essns::ess {

class ScenarioEvaluator {
 public:
  /// Batches run on the borrowed `lanes` (see SimulationService); null
  /// evaluates serially on the calling thread.
  explicit ScenarioEvaluator(const firelib::FireEnvironment& env,
                             parallel::MasterWorker* lanes = nullptr);

  ScenarioEvaluator(const ScenarioEvaluator&) = delete;
  ScenarioEvaluator& operator=(const ScenarioEvaluator&) = delete;

  /// Select the interval evaluated by subsequent batch calls: the step
  /// that ends at line `line` of `observations`, from line - 1 over
  /// [t_{line - 1}, t_line], scored against line `line` as read from the
  /// digest. Drops the step store (the burned-cell records of the previous
  /// step). `observations` must outlive the step.
  void set_step(Observations& observations, int line);

  /// BatchEvaluator view bound to this evaluator (valid while alive).
  ea::BatchEvaluator batch_evaluator();

  /// Fitness of one scenario on the current step (calling thread).
  double evaluate_scenario(const firelib::Scenario& scenario);

  /// Probability-of-ignition matrix of `scenarios` simulated from line
  /// `start_line` of `observations` to `end_time`: the Statistical Stage.
  /// When the line and `end_time` are the current step's start and end,
  /// scenarios the step's fitness batches simulated are counted from their
  /// recorded burned cells; the rest are simulated as one burned-cell batch
  /// over the worker pool. Bit-identical to aggregating one sweep per
  /// scenario from the line's burned region at its instant, at any worker
  /// count and cache policy.
  Grid<double> burn_probability(const std::vector<firelib::Scenario>& scenarios,
                                Observations& observations, int start_line,
                                double end_time);

  unsigned workers() const { return service_.workers(); }
  std::size_t simulations_run() const { return service_.simulations_run(); }

  std::size_t batch_dedup_hits() const { return service_.batch_dedup_hits(); }

  /// Scenario-cache controls and counters (see SimulationService).
  void set_cache_policy(cache::CachePolicy policy) {
    service_.set_cache_policy(policy);
  }
  cache::CachePolicy cache_policy() const { return service_.cache_policy(); }
  void set_shared_cache(std::shared_ptr<cache::SharedScenarioCache> cache) {
    service_.set_shared_cache(std::move(cache));
  }
  void set_cache_mem_bytes(std::size_t bytes) {
    service_.set_cache_mem_bytes(bytes);
  }
  std::size_t cache_hits() const { return service_.cache_hits(); }
  std::size_t cache_misses() const { return service_.cache_misses(); }
  std::size_t cache_evictions() const { return service_.cache_evictions(); }
  std::size_t cache_insertions_rejected() const {
    return service_.cache_insertions_rejected();
  }
  std::size_t cache_entries() const { return service_.cache_entries(); }
  std::size_t cache_bytes() const { return service_.cache_bytes(); }

  /// Shrink the step store's backstop (default 1<<16 records) — exposed so
  /// tests can exercise saturation cheaply.
  void set_step_cache_capacity(std::size_t capacity) {
    service_.set_step_cache_capacity(capacity);
  }

 private:
  std::vector<double> evaluate_batch(const std::vector<ea::Genome>& genomes);

  SimulationService service_;
  /// The current step: its target line of some observations.
  Observations* observations_ = nullptr;
  int line_ = 0;
};

}  // namespace essns::ess
