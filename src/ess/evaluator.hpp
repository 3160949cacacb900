// ScenarioEvaluator: the bridge between the metaheuristics (which see
// normalized genomes and fitness values) and the fire simulator (which sees
// scenarios and ignition maps).
//
// The paper parallelizes only this component: "parallelism will only be
// implemented in the evaluation of the scenarios, i.e., in the simulation
// process and subsequent computation of the fitness function" (§III-B).
// This implementation supersedes that scoping: all simulation goes through
// one pool-backed SimulationService, so the Statistical and Prediction
// stages share the OS-Worker pool (the Fig. 1/3 OS-Master -> OS-Worker
// message flow). With workers == 1 everything runs inline, and results are
// bit-identical across worker counts.
//
// The Statistical Stage aggregates the OS's solution set over the interval
// the OS just searched, and the OS has already simulated every member of it.
// So each fitness simulation hands back the cells its map burned, the
// evaluator keeps those records for the current step (keyed by scenario),
// and burn_probability() counts them instead of simulating again. Scenarios
// without a record — the PS's forward interval, or shared-cache hits that
// ran no simulation — still go through the service's map batch.
#pragma once

#include <unordered_map>

#include "ea/individual.hpp"
#include "ess/simulation_service.hpp"
#include "ess/statistical.hpp"

namespace essns::ess {

/// One prediction-step evaluation interval: simulate from `start_map`
/// (fire state at t = start_time) until end_time, score against target_map.
struct StepContext {
  const firelib::IgnitionMap* start_map = nullptr;
  const firelib::IgnitionMap* target_map = nullptr;
  double start_time = 0.0;
  double end_time = 0.0;
};

class ScenarioEvaluator {
 public:
  /// workers == 1: serial evaluation. workers > 1: persistent Master/Worker.
  ScenarioEvaluator(const firelib::FireEnvironment& env, unsigned workers = 1);

  ScenarioEvaluator(const ScenarioEvaluator&) = delete;
  ScenarioEvaluator& operator=(const ScenarioEvaluator&) = delete;

  /// Select the interval evaluated by subsequent batch calls. Drops the
  /// burned-cell records of the previous step. The context's maps are read
  /// in place by every later call, so they must stay unchanged while the
  /// step is current; call set_step again after changing them.
  void set_step(const StepContext& context);

  /// BatchEvaluator view bound to this evaluator (valid while alive).
  ea::BatchEvaluator batch_evaluator();

  /// Fitness of one scenario on the current step (calling thread).
  double evaluate_scenario(const firelib::Scenario& scenario);

  /// Simulated ignition map of `scenario` from `start` (state at
  /// `start_time`) to `end_time`, on the calling thread.
  firelib::IgnitionMap simulate(const firelib::Scenario& scenario,
                                const firelib::IgnitionMap& start,
                                double end_time);

  /// Probability-of-ignition matrix of `scenarios` simulated from `start`
  /// (fire state at the interval's start) to `end_time`: the Statistical
  /// Stage. When `start` and `end_time` are the current step's, scenarios
  /// the step's fitness batches simulated are counted from their recorded
  /// burned cells; the rest are simulated as one map batch over the worker
  /// pool. Bit-identical to aggregating N simulate() maps at any worker
  /// count and cache policy.
  Grid<double> burn_probability(const std::vector<firelib::Scenario>& scenarios,
                                const firelib::IgnitionMap& start,
                                double end_time);

  unsigned workers() const { return service_.workers(); }
  std::size_t simulations_run() const { return service_.simulations_run(); }

  /// Sweep-backend knob (see SimulationService::set_backend): kBatched runs
  /// homogeneous simulation batches as one BatchSweep launch. Performance
  /// only — results are bit-identical at any setting.
  void set_backend(firelib::SweepBackend backend) {
    service_.set_backend(backend);
  }
  firelib::SweepBackend backend() const { return service_.backend(); }
  std::size_t batch_dedup_hits() const { return service_.batch_dedup_hits(); }

  /// Relax-kernel and NUMA-placement knobs (see SimulationService); both
  /// are performance-only — results are bit-identical at any setting.
  void set_simd_mode(simd::Mode mode) { service_.set_simd_mode(mode); }
  simd::Mode simd_mode() const { return service_.simd_mode(); }
  simd::Isa simd_isa() const { return service_.simd_isa(); }
  void set_numa_mode(parallel::NumaMode mode) { service_.set_numa_mode(mode); }
  parallel::NumaMode numa_mode() const { return service_.numa_mode(); }
  bool numa_active() const { return service_.numa_active(); }
  std::size_t workers_pinned() const { return service_.workers_pinned(); }

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

  /// Shrink the burned-cell record backstop (default 1<<16 records, the
  /// step cache's) — exposed so tests can exercise saturation cheaply.
  void set_burned_memo_capacity(std::size_t capacity) {
    burned_memo_capacity_ = capacity;
  }

 private:
  std::vector<double> evaluate_batch(const std::vector<ea::Genome>& genomes);

  SimulationService service_;
  StepContext context_;
  /// Burned cells of the scenarios the fitness batches simulated since
  /// set_step, over the step's interval. Insertion stops (records are kept)
  /// at burned_memo_capacity_: a memory backstop like the step cache's, so
  /// a request with huge generations x population cannot grow it unbounded.
  std::unordered_map<cache::ScenarioKey, BurnedCells, cache::ScenarioKeyHash>
      burned_memo_;
  std::size_t burned_memo_capacity_ = 1 << 16;
};

}  // namespace essns::ess
