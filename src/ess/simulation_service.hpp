// SimulationService: the batched, pool-backed simulation engine shared by
// every pipeline stage.
//
// The paper parallelizes only the Optimization Stage ("parallelism will only
// be implemented in the evaluation of the scenarios", §III-B) and leaves the
// Statistical and Prediction stages serial. This service supersedes that
// scoping: one persistent Master/Worker pool (Fig. 1/3) serves fitness
// batches for the OS *and* map batches for the PS (and for SS solutions no
// fitness batch recorded), so every stage that simulates scales with the
// worker count. Each worker owns a
// firelib::PropagationWorkspace, so steady-state simulations run without
// per-call allocations regardless of which stage issued them.
//
// Determinism contract: requests are scattered by index and results gathered
// in request order, and each simulation is a deterministic function of its
// inputs — so results are bit-identical across worker counts (workers == 1
// runs inline on the calling thread).
//
// Scenario cache: duplicate genomes are common under GA crossover/elitism,
// and re-simulating a byte-identical scenario over the same interval from
// the same fire state is pure waste. The service memoizes batch results
// behind a cache-policy seam (cache::CachePolicy):
//
//   kStep   the original behavior, bit-for-bit: a private map keyed by the
//           scenario's parameter bytes, scoped to one (start map, target
//           map, interval) context; a context change (e.g. the next
//           prediction step) clears it. All bookkeeping happens on the
//           master thread at batch-assembly time, so hit/miss counts and
//           results are deterministic at every worker count.
//   kShared a cache::SharedScenarioCache keyed by context-qualified keys,
//           surviving context changes and shareable across concurrent
//           services (one per campaign). Hit/miss patterns may vary across
//           runs, but every served value is a byte-exact pure function of
//           its key, so results stay bit-identical to kOff.
//   kOff    no memoization.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cache/scenario_cache.hpp"
#include "ess/statistical.hpp"
#include "firelib/batch_sweep.hpp"
#include "firelib/environment.hpp"
#include "firelib/propagator.hpp"
#include "parallel/affinity.hpp"
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
  /// When false, the simulated map is dropped after scoring (fitness-only
  /// requests avoid one map copy per simulation).
  bool keep_map = true;
};

/// The requests of a fitness batch: each scenario over [start_time,
/// end_time] from `start`, scored against `target`, map dropped. The pointers
/// refer into the arguments, which must outlive the requests.
std::vector<SimulationRequest> fitness_requests(
    const std::vector<firelib::Scenario>& scenarios,
    const firelib::IgnitionMap& start, const firelib::IgnitionMap& target,
    double start_time, double end_time);

struct SimulationResult {
  firelib::IgnitionMap map;  ///< empty when the request had keep_map = false
  double fitness = 0.0;      ///< 0 when the request had no target
  /// Requests with a target: the cells the simulated map burned by
  /// end_time, the record the Statistical Stage aggregates instead of
  /// re-simulating. Empty when no simulation ran for this request in this
  /// batch (a cache hit).
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
  /// Entries / charged bytes visible to this service: the step-scoped map
  /// under kStep, the whole shared cache under kShared, 0 under kOff.
  std::size_t cache_entries() const;
  std::size_t cache_bytes() const;

  /// Shrink the kStep insertion backstop (default 1<<16 entries) — exposed
  /// so tests can exercise the saturation counters cheaply.
  void set_step_cache_capacity(std::size_t capacity) {
    step_cache_capacity_ = capacity;
  }

  /// Run both kernels as before the hot-path overhaul: reference Dijkstra
  /// sweep (per-pop behavior + trig) and mask-materializing Eq. (3). For
  /// equivalence tests and bench_hotpath baselines.
  void set_reference_kernels(bool reference);

  /// Select the sweep backend (default kScalar). kBatched routes homogeneous
  /// simulation batches — same start map and horizon, which is what every
  /// cache path and fitness/map batch produces — through one
  /// firelib::BatchSweep launch on the calling thread: grouped travel-time
  /// tables built once per batch, per-scenario state striped through one
  /// super-slab. In-batch duplicates are deduped by ScenarioKey before the
  /// batch engine runs (the cache paths' scheduling), so GA duplicate-heavy
  /// batches become smaller launches. Results are bit-identical to kScalar
  /// at any worker count; heterogeneous batches and reference-kernel runs
  /// keep the per-scenario path.
  void set_backend(firelib::SweepBackend backend) { backend_ = backend; }
  firelib::SweepBackend backend() const { return backend_; }

  /// Requests served by an in-batch duplicate (the dedup that shrinks
  /// batched launches); a subset of cache_hits(). Also flushed to the obs
  /// registry as `sweep.batch_dedup_hits`.
  std::size_t batch_dedup_hits() const { return batch_dedup_hits_; }

  /// Select the propagator's sweep-queue discipline (default kDial). Heap
  /// and dial sweeps are bit-identical; the knob exists so equivalence
  /// tests and bench_sweep can measure both through the service.
  void set_sweep_queue(firelib::SweepQueue queue);
  firelib::SweepQueue sweep_queue() const;

  /// Select the propagator's relax kernel (default simd::Mode::kAuto).
  /// Scalar and AVX2 kernels are bit-identical (relax_kernel.hpp); the knob
  /// exists so equivalence tests and bench_sweep can measure both.
  void set_simd_mode(simd::Mode mode);
  simd::Mode simd_mode() const;
  /// What the mode resolved to on this host (runtime dispatch result).
  simd::Isa simd_isa() const;

  /// NUMA-aware worker placement (default kAuto: active only on hosts with
  /// more than one node). When active, each pool worker pins itself to its
  /// round-robin node's cpuset at its first task and first-touches every
  /// slab of its PropagationWorkspace (prefault), so workspace pages live
  /// on the worker's node under Linux's first-touch policy. Placement is a
  /// scheduling hint only — results are bit-identical at any setting.
  /// Setting a mode re-arms placement; it takes effect at each worker's
  /// next task.
  void set_numa_mode(parallel::NumaMode mode);
  parallel::NumaMode numa_mode() const { return numa_mode_; }
  /// Whether the current mode pins on this host's topology.
  bool numa_active() const;
  /// NUMA nodes the placement round-robins over.
  std::size_t numa_nodes() const;
  /// Pool workers that successfully pinned so far (master never pins).
  std::size_t workers_pinned() const { return workers_pinned_.load(); }

  /// One simulation on the calling thread (master workspace).
  firelib::IgnitionMap simulate(const firelib::Scenario& scenario,
                                const firelib::IgnitionMap& start,
                                double end_time);

  /// Scatter `requests` over the pool, gather results in request order.
  std::vector<SimulationResult> run_batch(
      const std::vector<SimulationRequest>& requests);

  /// Map batch: simulate every scenario over [*, end_time] from `start`.
  /// Equivalent to N simulate() calls, bit for bit, at any worker count.
  std::vector<firelib::IgnitionMap> simulate_batch(
      const std::vector<firelib::Scenario>& scenarios,
      const firelib::IgnitionMap& start, double end_time);

  /// Fitness batch: Eq. (3) of each scenario's simulated map at end_time
  /// against `target`, excluding cells burned in `target` by start_time.
  std::vector<double> fitness_batch(
      const std::vector<firelib::Scenario>& scenarios,
      const firelib::IgnitionMap& start, const firelib::IgnitionMap& target,
      double start_time, double end_time);

 private:
  /// The interval the kStep cache is currently valid for. Pointer identity
  /// plus a content fingerprint of both maps, so in-place mutation behind a
  /// reused pointer invalidates instead of serving stale results.
  struct CacheContext {
    const firelib::IgnitionMap* start = nullptr;
    const firelib::IgnitionMap* target = nullptr;
    double start_time = 0.0;
    double end_time = 0.0;
    std::uint64_t start_fingerprint = 0;
    std::uint64_t target_fingerprint = 0;
    bool valid = false;

    friend bool operator==(const CacheContext&, const CacheContext&) = default;
  };

  /// Lazy one-shot placement of workspace slot `worker_id` on its owning
  /// thread: pool workers (id > 0) pin to their node's cpuset, then every
  /// slot prefaults its workspace so first-touch lands post-pin. Each slot
  /// is only ever touched by its own thread, so no synchronization beyond
  /// the pinned-worker counter.
  void place_worker(unsigned worker_id);
  SimulationResult run_one(unsigned worker_id, const SimulationRequest& req);
  std::vector<SimulationResult> run_batch_uncached(
      const std::vector<const SimulationRequest*>& requests);
  /// One BatchSweep launch over the (already deduped) requests; requires a
  /// shared start map and end time across the batch.
  std::vector<SimulationResult> run_batch_batched(
      const std::vector<const SimulationRequest*>& requests);
  std::vector<SimulationResult> run_batch_step(
      const std::vector<SimulationRequest>& requests);
  std::vector<SimulationResult> run_batch_shared(
      const std::vector<SimulationRequest>& requests);
  void clear_step_cache();

  const firelib::FireEnvironment* env_;
  firelib::FireSpreadModel spread_model_;
  firelib::FirePropagator propagator_;
  /// workspaces_[0] belongs to the calling thread; pool worker `id` uses
  /// workspaces_[id + 1].
  std::vector<firelib::PropagationWorkspace> workspaces_;
  /// worker_placed_[id]: slot id has run its one-shot placement. Written
  /// only by the slot's owning thread; reset (master-side, between batches)
  /// by set_numa_mode.
  std::vector<std::uint8_t> worker_placed_;
  parallel::NumaMode numa_mode_ = parallel::NumaMode::kAuto;
  std::atomic<std::size_t> workers_pinned_{0};
  mutable std::atomic<std::size_t> simulations_{0};
  std::unique_ptr<parallel::MasterWorker<const SimulationRequest*,
                                         SimulationResult>>
      pool_;

  cache::CachePolicy cache_policy_ = cache::CachePolicy::kStep;
  bool reference_fitness_ = false;
  firelib::SweepBackend backend_ = firelib::SweepBackend::kScalar;
  /// Lazily created on the first batched launch; master-thread only.
  std::unique_ptr<firelib::BatchSweep> batch_engine_;
  std::size_t batch_dedup_hits_ = 0;

  // kStep state: one context's worth of memoized scenarios.
  std::unordered_map<cache::ScenarioKey, cache::CachedScenario,
                     cache::ScenarioKeyHash>
      step_cache_;
  CacheContext cache_context_;
  std::size_t step_cache_bytes_ = 0;
  /// Insertion stops (entries are kept) once the step cache holds this many
  /// scenarios; contexts are short-lived, so this is a memory backstop, not
  /// an eviction policy. Saturation shows up in cache_insertions_rejected.
  std::size_t step_cache_capacity_ = 1 << 16;

  // kShared state.
  std::shared_ptr<cache::SharedScenarioCache> shared_cache_;
  std::size_t cache_mem_bytes_ = cache::kDefaultCacheBytes;
  /// Terrain fingerprint folded into every shared-cache context so jobs
  /// over different environments never share entries. Computed on the
  /// master thread at the first shared batch (the environment is fixed
  /// for the service's lifetime).
  std::optional<std::uint64_t> env_fingerprint_;

  std::size_t cache_hits_ = 0;
  std::size_t cache_misses_ = 0;
  std::size_t cache_evictions_ = 0;
  std::size_t cache_insertions_rejected_ = 0;
};

}  // namespace essns::ess
