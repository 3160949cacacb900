// SimulationService: the batched simulation engine shared by every
// pipeline stage.
//
// The paper parallelizes only the Optimization Stage ("parallelism will only
// be implemented in the evaluation of the scenarios", §III-B) and leaves the
// Statistical and Prediction stages serial. This service supersedes that
// scoping: the lanes of one Master/Worker pool (Fig. 1/3) serve fitness
// batches for the OS *and* burned-cell batches for the PS (and for SS
// solutions no fitness batch recorded), so every stage that simulates
// scales with the lane count. The service borrows the lanes and owns no
// threads: an engine job runs on its slot's long-lived (and, where the
// CPUs allow, pinned) pool, anything else on a job-local one
// (parallel::make_job_lanes). The service owns one
// firelib::PropagationWorkspace per lane plus one for the calling thread,
// so steady-state simulations run without per-call allocations regardless
// of which stage issued them.
//
// Determinism contract: requests are scattered by index and results gathered
// in request order, and each simulation is a deterministic function of its
// inputs — so results are bit-identical across lane counts and placements
// (without lanes every batch runs inline on the calling thread).
//
// What a simulation yields: every Eq. (3) score and Statistical Stage count
// only asks which cells burned by the end of the interval, so results carry
// the sweep's burned-cell record (firelib::BurnedCells, one bit per cell),
// never the f64 ignition map. Each batch runs in a context — (start line,
// target line, interval) — that reads its fire lines from an observation
// digest (ess/observation.hpp): the packed scoring target and, for the
// shared cache, the lines' fingerprints. Every simulation starts from what
// an observer saw of the start line k: the cells it had burned by t_k, all
// at t_k (firelib::burned_region), whatever the context's start time. That
// map and its start cells (firelib::start_cells) are built once for the
// context, only when a batch has to simulate, and every sweep seeds from
// them; the burned interior is settled and never queued. A context is
// identified by the Observations object and its line indices, whose
// digest is immutable.
//
// Scenario cache: duplicate genomes are common under GA crossover/elitism,
// and re-simulating a byte-identical scenario over the same interval from
// the same fire state is pure waste. The service memoizes batch results
// behind a cache-policy seam (cache::CachePolicy):
//
//   kStep   the original behavior, bit-for-bit: the step store, keyed by
//           the scenario's parameter bytes and scoped to one context; a
//           context change (e.g. the next prediction step) clears it. All
//           bookkeeping happens on the master thread at batch-assembly
//           time, so hit/miss counts and results are deterministic at every
//           worker count.
//   kShared a cache::SharedScenarioCache keyed by context-qualified keys,
//           surviving context changes and shareable across concurrent
//           services (one per campaign). Hit/miss patterns may vary across
//           runs, but every served value is a byte-exact pure function of
//           its key, so results stay bit-identical to kOff.
//   kOff    no memoization.
//
// Under every policy the step store also keeps the burned cells of what the
// current context simulated: the records the Statistical Stage of the same
// interval counts instead of re-simulating (step_records). Only kStep
// serves cache hits from it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cache/scenario_cache.hpp"
#include "ess/fitness.hpp"
#include "ess/observation.hpp"
#include "ess/statistical.hpp"
#include "firelib/environment.hpp"
#include "firelib/propagator.hpp"
#include "parallel/master_worker.hpp"

namespace essns::ess {

class SimulationService {
 public:
  /// Batches run on the borrowed `lanes`, which must outlive the service
  /// and serve no other master meanwhile; null runs every call inline on
  /// the calling thread.
  explicit SimulationService(const firelib::FireEnvironment& env,
                             parallel::MasterWorker* lanes = nullptr);

  SimulationService(const SimulationService&) = delete;
  SimulationService& operator=(const SimulationService&) = delete;

  unsigned workers() const;
  std::size_t simulations_run() const { return simulations_.load(); }

  /// Select the memoization policy (default kStep). Results are
  /// bit-identical under every policy; the policies trade CPU for memory
  /// and sharing scope. Switching policies drops the step-scoped cache.
  void set_cache_policy(cache::CachePolicy policy);
  cache::CachePolicy cache_policy() const { return cache_policy_; }

  /// The cross-step / cross-job cache used when the policy is kShared. A
  /// campaign installs one cache into every job's service; when none is
  /// installed the service lazily creates a private one sized
  /// cache_mem_bytes on first use.
  void set_shared_cache(std::shared_ptr<cache::SharedScenarioCache> cache);
  std::shared_ptr<cache::SharedScenarioCache> shared_cache() const {
    return shared_cache_;
  }

  /// Byte budget of a lazily self-created shared cache (default 256 MiB).
  /// Ignored once a cache is installed or created.
  void set_cache_mem_bytes(std::size_t bytes) { cache_mem_bytes_ = bytes; }

  /// Batch requests served from the cache / satisfied by an in-batch
  /// duplicate, vs actually simulated. Under kStep these are deterministic
  /// across worker counts (decisions happen on the master thread); under
  /// kShared concurrent services mutate the cache, so the split may vary
  /// while results stay bit-identical.
  std::size_t cache_hits() const { return cache_hits_; }
  std::size_t cache_misses() const { return cache_misses_; }
  /// Evictions this service's inserts triggered (kShared only).
  std::size_t cache_evictions() const { return cache_evictions_; }
  /// Inserts dropped: step cache at its capacity backstop, or a shared
  /// entry larger than a whole cache shard.
  std::size_t cache_insertions_rejected() const {
    return cache_insertions_rejected_;
  }
  /// Entries / charged bytes visible to this service: the step store under
  /// kStep, the whole shared cache under kShared, 0 under kOff.
  std::size_t cache_entries() const;
  std::size_t cache_bytes() const;

  /// Shrink the step store's insertion backstop (default 1<<16 entries) —
  /// exposed so tests can exercise the saturation counters cheaply.
  void set_step_cache_capacity(std::size_t capacity) {
    step_cache_capacity_ = capacity;
  }

  /// Start the prediction step that ends at line `target_line` of
  /// `observations`: from line target_line - 1 over [t_{target_line - 1},
  /// t_{target_line}], scored against line target_line. Drops the step
  /// store and reads the context (fingerprints, packed scoring target) from
  /// the digest now, once, for the step's batches. `observations` must
  /// outlive the step.
  void begin_step(Observations& observations, int target_line);

  /// Eq. (3) of one scenario over that step, simulated on the calling
  /// thread without the cache (in the step's context, like a batch).
  double score(const firelib::Scenario& scenario, Observations& observations,
               int target_line);

  /// The current context's recorded burned cells of each scenario, valid
  /// until the next batch: element i is nullptr where the context has no
  /// record of scenarios[i], and every element is nullptr unless the
  /// context starts at line `start_line` of `observations` (the same
  /// object) and ends at `end_time`.
  std::vector<const BurnedCells*> step_records(
      const std::vector<firelib::Scenario>& scenarios,
      const Observations& observations, int start_line,
      double end_time) const;

  /// Requests served by an in-batch duplicate (simulated once, however
  /// often the batch repeats it); a subset of cache_hits(). Also flushed to
  /// the obs registry as `sweep.batch_dedup_hits`.
  std::size_t batch_dedup_hits() const { return batch_dedup_hits_; }

  /// Burned-cell batch: simulate every scenario from line `start_line` of
  /// `observations` to `end_time`, returning the cells each burned by
  /// end_time. Equal, bit for bit and at any worker count, to packing one
  /// sweep per scenario from the line's burned region at its instant.
  std::vector<BurnedCells> simulate_batch(
      const std::vector<firelib::Scenario>& scenarios,
      Observations& observations, int start_line, double end_time);

  /// Fitness batch: Eq. (3) of each scenario over the step that ends at
  /// line `target_line` of `observations` (see begin_step).
  std::vector<double> fitness_batch(
      const std::vector<firelib::Scenario>& scenarios,
      Observations& observations, int target_line);

 private:
  /// One scenario's outcome in the current context.
  struct SimulationResult {
    double fitness = 0.0;  ///< 0 in an unscored context
    /// The cells the simulation burned by end_time. Always set in an
    /// unscored context (a cache hit serves its record); in a scored one
    /// only when this batch simulated the scenario — a cache hit answers
    /// with the score alone.
    BurnedCells burned;
    /// Wall-clock of the simulation that produced this result (0 for cache
    /// hits); the shared cache weights eviction by it.
    double sim_seconds = 0.0;
  };

  /// The context batches run in: a start line of some observations, an
  /// optional target (always the next line), the interval, and what the
  /// batches read of the lines, taken from the digest when the context
  /// begins.
  struct Context {
    Observations* observations = nullptr;
    int start_line = 0;
    bool scored = false;  ///< scored against line start_line + 1
    double start_time = 0.0;  ///< of the interval; 0 when unscored
    double end_time = 0.0;
    /// t_k of the start line: every simulation in the context starts from
    /// the line's burned region at this instant, whatever start_time says.
    double line_time = 0.0;
    /// Shared-cache key material; filled only under kShared.
    std::uint64_t start_fingerprint = 0;
    std::uint64_t target_fingerprint = 0;
    const ScoringTarget* scoring = nullptr;  ///< null without a target
    /// The start line's burned region at its instant and its start cells
    /// for end_time, built by prepare_simulation() before the context's
    /// first simulation.
    firelib::IgnitionMap start;
    std::optional<firelib::StartCells> start_cells;
    bool valid = false;
  };

  /// Build the current context's start map and cells unless it has them:
  /// on the master thread, before any lane simulates in the context.
  void prepare_simulation();
  /// Simulate one scenario of the current context in workspace
  /// `workspace` (after prepare_simulation()).
  SimulationResult run_one(unsigned workspace,
                           const firelib::Scenario& scenario);
  std::vector<SimulationResult> simulate_uncached(
      const std::vector<const firelib::Scenario*>& scenarios);
  /// Every batch: under kOff simulate all; under kStep / kShared dedup,
  /// serve hits and simulate the rest.
  std::vector<SimulationResult> run_in_context(
      const std::vector<const firelib::Scenario*>& scenarios);
  std::vector<SimulationResult> run_cached(
      const std::vector<const firelib::Scenario*>& scenarios);
  /// Make the context the one from `start_line` of `observations` over
  /// [start_time, end_time], scored against the next line when `scored`;
  /// a new context drops the step store.
  void enter_context(Observations& observations, int start_line, bool scored,
                     double start_time, double end_time);
  /// Same, for the scored step that ends at line `target_line`.
  void enter_step(Observations& observations, int target_line);
  /// Keep a simulated scenario's burned cells (and score) in the step
  /// store, up to its capacity backstop.
  void remember(const cache::ScenarioKey& key, const SimulationResult& sim);
  void clear_step_cache();

  const firelib::FireEnvironment* env_;
  firelib::FireSpreadModel spread_model_;
  firelib::FirePropagator propagator_;
  /// Borrowed; null runs batches inline.
  parallel::MasterWorker* lanes_;
  /// workspaces_[0] belongs to the calling thread; lane `id` uses
  /// workspaces_[id + 1].
  std::vector<firelib::PropagationWorkspace> workspaces_;
  mutable std::atomic<std::size_t> simulations_{0};

  cache::CachePolicy cache_policy_ = cache::CachePolicy::kStep;
  std::size_t batch_dedup_hits_ = 0;

  // The step store: one context's worth of simulated scenarios.
  std::unordered_map<cache::ScenarioKey, cache::CachedScenario,
                     cache::ScenarioKeyHash>
      step_cache_;
  Context context_;
  std::size_t step_cache_bytes_ = 0;
  /// Insertion stops (entries are kept) once the step store holds this many
  /// scenarios; contexts are short-lived, so this is a memory backstop, not
  /// an eviction policy. Under kStep saturation shows up in
  /// cache_insertions_rejected; past it a scenario has no record and the
  /// Statistical Stage simulates it.
  std::size_t step_cache_capacity_ = 1 << 16;

  // kShared state.
  std::shared_ptr<cache::SharedScenarioCache> shared_cache_;
  std::size_t cache_mem_bytes_ = cache::kDefaultCacheBytes;
  /// Terrain fingerprint folded into every shared-cache context so jobs
  /// over different environments never share entries. Computed on the
  /// master thread at the first shared batch (the environment is fixed for
  /// the service's lifetime).
  std::optional<std::uint64_t> env_fingerprint_;

  std::size_t cache_hits_ = 0;
  std::size_t cache_misses_ = 0;
  std::size_t cache_evictions_ = 0;
  std::size_t cache_insertions_rejected_ = 0;
};

}  // namespace essns::ess
