// SimulationService: the batched, pool-backed simulation engine shared by
// every pipeline stage.
//
// The paper parallelizes only the Optimization Stage ("parallelism will only
// be implemented in the evaluation of the scenarios", §III-B) and leaves the
// Statistical and Prediction stages serial. This service supersedes that
// scoping: one persistent Master/Worker pool (Fig. 1/3) serves fitness
// batches for the OS *and* burned-cell batches for the PS (and for SS
// solutions no fitness batch recorded), so every stage that simulates
// scales with the worker count. Each worker owns a
// firelib::PropagationWorkspace, so steady-state simulations run without
// per-call allocations regardless of which stage issued them.
//
// Determinism contract: requests are scattered by index and results gathered
// in request order, and each simulation is a deterministic function of its
// inputs — so results are bit-identical across worker counts (workers == 1
// runs inline on the calling thread).
//
// What a simulation yields: every Eq. (3) score and Statistical Stage count
// only asks which cells burned by the end of the interval, so results carry
// the sweep's burned-cell record (firelib::BurnedCells, one bit per cell),
// never the f64 ignition map. Each batch runs in a context — (start line,
// target line, interval) — that reads its fire lines from an observation
// digest (ess/observation.hpp): the packed scoring target and, for the
// shared cache, the lines' fingerprints. The dense start line is fetched
// only when a batch has to simulate, so a batch the cache answers in full
// never needs it. Callers that pass raw maps get a digest built from
// copies of them; later batches compare the maps against those copies, so
// a map changed in place behind a reused pointer still starts a new
// context.
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

/// One simulation over an interval, optionally scored against a target map.
struct SimulationRequest {
  const firelib::Scenario* scenario = nullptr;
  const firelib::IgnitionMap* start = nullptr;  ///< fire state at start_time
  double start_time = 0.0;
  double end_time = 0.0;
  /// When set, the result carries fitness = Eq. (3) vs this map (cells
  /// burned in `target` by start_time are excluded as preburned).
  const firelib::IgnitionMap* target = nullptr;
};

/// The requests of a fitness batch: each scenario over [start_time,
/// end_time] from `start`, scored against `target`. The pointers refer into
/// the arguments, which must outlive the requests.
std::vector<SimulationRequest> fitness_requests(
    const std::vector<firelib::Scenario>& scenarios,
    const firelib::IgnitionMap& start, const firelib::IgnitionMap& target,
    double start_time, double end_time);

struct SimulationResult {
  double fitness = 0.0;  ///< 0 when the request had no target
  /// The cells the simulation burned by end_time. Always set for requests
  /// without a target (a cache hit serves its record); for scored requests
  /// only when this batch simulated the scenario — a cache hit answers with
  /// the score alone.
  BurnedCells burned;
  /// Wall-clock of the simulation that produced this result (0 for cache
  /// hits); the shared cache weights eviction by it.
  double sim_seconds = 0.0;
};

class SimulationService {
 public:
  /// workers == 1: every call runs inline on the calling thread.
  /// workers > 1: a persistent Master/Worker pool serves all batches.
  explicit SimulationService(const firelib::FireEnvironment& env,
                             unsigned workers = 1);
  ~SimulationService();

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

  /// Start a prediction step over [start_time, end_time] from `start`,
  /// scored against `target`: drop the step store, and build the context
  /// (copies, fingerprints, packed scoring target) now, once, for the
  /// step's batches.
  void begin_step(const firelib::IgnitionMap& start,
                  const firelib::IgnitionMap& target, double start_time,
                  double end_time);
  /// The same for the step that ends at line `target_line` of
  /// `observations`: from line target_line - 1 over [t_{target_line - 1},
  /// t_{target_line}]. The context reads the digest; `observations` must
  /// outlive the step.
  void begin_step(Observations& observations, int target_line);

  /// Eq. (3) of one scenario over [start_time, end_time] from `start`
  /// against `target`, simulated on the calling thread without the cache
  /// (in that context, like a batch).
  double score(const firelib::Scenario& scenario,
               const firelib::IgnitionMap& start,
               const firelib::IgnitionMap& target, double start_time,
               double end_time);
  double score(const firelib::Scenario& scenario, Observations& observations,
               int target_line);

  /// The current context's recorded burned cells of each scenario, valid
  /// until the next batch: element i is nullptr where the context has no
  /// record of scenarios[i], and every element is nullptr unless `start`
  /// (same address and content) and `end_time` are the context's.
  std::vector<const BurnedCells*> step_records(
      const std::vector<firelib::Scenario>& scenarios,
      const firelib::IgnitionMap& start, double end_time) const;
  /// The same for a context that starts at line `start_line` of
  /// `observations`.
  std::vector<const BurnedCells*> step_records(
      const std::vector<firelib::Scenario>& scenarios,
      const Observations& observations, int start_line,
      double end_time) const;

  /// Run the reference Dijkstra sweep (per-pop behavior + trig) as before
  /// the hot-path overhaul. For equivalence tests and bench_hotpath
  /// baselines.
  void set_reference_kernels(bool reference);

  /// Requests served by an in-batch duplicate (simulated once, however
  /// often the batch repeats it); a subset of cache_hits(). Also flushed to
  /// the obs registry as `sweep.batch_dedup_hits`.
  std::size_t batch_dedup_hits() const { return batch_dedup_hits_; }

  /// Select the propagator's sweep-queue discipline (default kDial). Heap
  /// and dial sweeps are bit-identical; the knob exists so equivalence
  /// tests and bench_sweep can measure both through the service.
  void set_sweep_queue(firelib::SweepQueue queue);
  firelib::SweepQueue sweep_queue() const;

  /// One simulation on the calling thread (master workspace).
  firelib::IgnitionMap simulate(const firelib::Scenario& scenario,
                                const firelib::IgnitionMap& start,
                                double end_time);

  /// Scatter `requests` over the pool, gather results in request order.
  /// The requests must share one context: start map, target (or none),
  /// start time and end time.
  std::vector<SimulationResult> run_batch(
      const std::vector<SimulationRequest>& requests);

  /// Burned-cell batch: simulate every scenario over [*, end_time] from
  /// `start`, returning the cells each burned by end_time. Equal to packing
  /// N simulate() maps at end_time, bit for bit, at any worker count.
  std::vector<BurnedCells> simulate_batch(
      const std::vector<firelib::Scenario>& scenarios,
      const firelib::IgnitionMap& start, double end_time);
  /// The same from line `start_line` of `observations`.
  std::vector<BurnedCells> simulate_batch(
      const std::vector<firelib::Scenario>& scenarios,
      Observations& observations, int start_line, double end_time);

  /// Fitness batch: Eq. (3) of each scenario's simulated map at end_time
  /// against `target`, excluding cells burned in `target` by start_time.
  std::vector<double> fitness_batch(
      const std::vector<firelib::Scenario>& scenarios,
      const firelib::IgnitionMap& start, const firelib::IgnitionMap& target,
      double start_time, double end_time);
  /// The same for the step that ends at line `target_line` of
  /// `observations` (see begin_step).
  std::vector<double> fitness_batch(
      const std::vector<firelib::Scenario>& scenarios,
      Observations& observations, int target_line);

 private:
  /// The context batches run in: a start line of some observations, an
  /// optional target (always the next line), the interval, and what the
  /// batches read of the lines, taken from the digest when the context
  /// begins.
  struct Context {
    Observations* observations = nullptr;
    int start_line = 0;
    bool scored = false;  ///< scored against line start_line + 1
    double start_time = 0.0;
    double end_time = 0.0;
    /// Shared-cache key material; filled only under kShared.
    std::uint64_t start_fingerprint = 0;
    std::uint64_t target_fingerprint = 0;
    const ScoringTarget* scoring = nullptr;  ///< null without a target
    const firelib::IgnitionMap* start = nullptr;  ///< the dense start line
    bool valid = false;
  };

  /// Name pool worker `worker_id`'s trace lane on its first task, from its
  /// own thread (the master thread is named by the session owner).
  void name_worker(unsigned worker_id);
  /// Simulate one scenario of the current context in workspace
  /// `worker_id`.
  SimulationResult run_one(unsigned worker_id,
                           const firelib::Scenario& scenario);
  std::vector<SimulationResult> run_batch_uncached(
      const std::vector<const firelib::Scenario*>& scenarios);
  /// Every batch: under kOff simulate all; under kStep / kShared dedup,
  /// serve hits and simulate the rest.
  std::vector<SimulationResult> run_in_context(
      const std::vector<const firelib::Scenario*>& scenarios);
  std::vector<SimulationResult> run_batch_cached(
      const std::vector<const firelib::Scenario*>& scenarios);
  /// Make the context the one from `start_line` of `observations` over
  /// [start_time, end_time], scored against the next line when `scored`;
  /// a new context drops the step store.
  void enter_context(Observations& observations, int start_line, bool scored,
                     double start_time, double end_time);
  /// Same, for the scored step that ends at line `target_line`.
  void enter_step(Observations& observations, int target_line);
  /// The observations of raw maps: the current ones while `start` and
  /// `target` are the same maps (address and content) over the same
  /// interval, otherwise new ones built from copies of them.
  Observations& raw_observations(const firelib::IgnitionMap& start,
                                 const firelib::IgnitionMap* target,
                                 double start_time, double end_time);
  /// Keep a simulated scenario's burned cells (and score) in the step
  /// store, up to its capacity backstop.
  void remember(const cache::ScenarioKey& key, const SimulationResult& sim);
  void clear_step_cache();

  const firelib::FireEnvironment* env_;
  firelib::FireSpreadModel spread_model_;
  firelib::FirePropagator propagator_;
  /// workspaces_[0] belongs to the calling thread; pool worker `id` uses
  /// workspaces_[id + 1].
  std::vector<firelib::PropagationWorkspace> workspaces_;
  /// worker_named_[id]: slot id's thread has named its trace lane.
  /// Written only by the slot's owning thread.
  std::vector<std::uint8_t> worker_named_;
  mutable std::atomic<std::size_t> simulations_{0};
  std::unique_ptr<parallel::MasterWorker<const firelib::Scenario*,
                                         SimulationResult>>
      pool_;

  cache::CachePolicy cache_policy_ = cache::CachePolicy::kStep;
  std::size_t batch_dedup_hits_ = 0;

  // The step store: one context's worth of simulated scenarios.
  std::unordered_map<cache::ScenarioKey, cache::CachedScenario,
                     cache::ScenarioKeyHash>
      step_cache_;
  Context context_;
  /// The raw-map callers' observations and the maps they were copied from.
  std::optional<Observations> raw_;
  const firelib::IgnitionMap* raw_start_ = nullptr;
  const firelib::IgnitionMap* raw_target_ = nullptr;
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
