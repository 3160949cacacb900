#include "ess/simulation_service.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"
#include "ess/fitness.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace essns::ess {

SimulationService::SimulationService(const firelib::FireEnvironment& env,
                                     unsigned workers)
    : env_(&env), propagator_(spread_model_) {
  ESSNS_REQUIRE(workers >= 1, "need at least one worker");
  workspaces_.resize(workers > 1 ? workers + 1 : 1);
  worker_placed_.assign(workspaces_.size(), 0);
  if (workers > 1) {
    pool_ = std::make_unique<
        parallel::MasterWorker<const SimulationRequest*, SimulationResult>>(
        workers, [this](unsigned id, const SimulationRequest* const& req) {
          return run_one(id + 1, *req);
        });
  }
}

SimulationService::~SimulationService() = default;

unsigned SimulationService::workers() const {
  return pool_ ? pool_->worker_count() : 1;
}

void SimulationService::clear_step_cache() {
  step_cache_.clear();
  cache_context_ = CacheContext{};
  step_cache_bytes_ = 0;
}

void SimulationService::set_cache_policy(cache::CachePolicy policy) {
  if (policy == cache_policy_) return;
  cache_policy_ = policy;
  clear_step_cache();
}

void SimulationService::set_shared_cache(
    std::shared_ptr<cache::SharedScenarioCache> cache) {
  shared_cache_ = std::move(cache);
}

std::size_t SimulationService::cache_entries() const {
  switch (cache_policy_) {
    case cache::CachePolicy::kStep: return step_cache_.size();
    case cache::CachePolicy::kShared:
      return shared_cache_ ? shared_cache_->stats().entries : 0;
    case cache::CachePolicy::kOff: break;
  }
  return 0;
}

std::size_t SimulationService::cache_bytes() const {
  switch (cache_policy_) {
    case cache::CachePolicy::kStep: return step_cache_bytes_;
    case cache::CachePolicy::kShared:
      return shared_cache_ ? shared_cache_->stats().bytes : 0;
    case cache::CachePolicy::kOff: break;
  }
  return 0;
}

void SimulationService::set_reference_kernels(bool reference) {
  propagator_.set_reference_sweep(reference);
  reference_fitness_ = reference;
}

void SimulationService::set_sweep_queue(firelib::SweepQueue queue) {
  propagator_.set_sweep_queue(queue);
}

firelib::SweepQueue SimulationService::sweep_queue() const {
  return propagator_.sweep_queue();
}

void SimulationService::set_simd_mode(simd::Mode mode) {
  propagator_.set_simd_mode(mode);
}

simd::Mode SimulationService::simd_mode() const {
  return propagator_.simd_mode();
}

simd::Isa SimulationService::simd_isa() const {
  return propagator_.simd_isa();
}

void SimulationService::set_numa_mode(parallel::NumaMode mode) {
  numa_mode_ = mode;
  std::fill(worker_placed_.begin(), worker_placed_.end(), 0);
}

bool SimulationService::numa_active() const {
  return parallel::numa_pinning_active(numa_mode_,
                                       parallel::system_numa_topology());
}

std::size_t SimulationService::numa_nodes() const {
  return parallel::system_numa_topology().node_count();
}

void SimulationService::place_worker(unsigned worker_id) {
  if (worker_placed_[worker_id]) return;
  worker_placed_[worker_id] = 1;
  // First touch by this worker on its own thread: label its trace lane
  // (worker 0 is the master thread, named by the session owner).
  if (worker_id > 0)
    obs::set_thread_name("sim-worker-" + std::to_string(worker_id));
  const parallel::NumaTopology& topology = parallel::system_numa_topology();
  if (!parallel::numa_pinning_active(numa_mode_, topology)) return;
  if (worker_id > 0) {
    const std::size_t node =
        parallel::node_for_worker(topology, worker_id - 1);
    if (parallel::pin_current_thread_to_cpus(topology.nodes[node].cpus))
      workers_pinned_.fetch_add(1, std::memory_order_relaxed);
  }
  // First-touch every slab from the (now pinned) owning thread, so the
  // pages are committed on this worker's node before the first sweep.
  workspaces_[worker_id].prefault(env_->rows(), env_->cols());
}

firelib::IgnitionMap SimulationService::simulate(
    const firelib::Scenario& scenario, const firelib::IgnitionMap& start,
    double end_time) {
  place_worker(0);
  simulations_.fetch_add(1, std::memory_order_relaxed);
  ESSNS_TRACE_SPAN("simulate");
  return propagator_.propagate(*env_, scenario, start, end_time,
                               workspaces_[0]);
}

SimulationResult SimulationService::run_one(unsigned worker_id,
                                            const SimulationRequest& req) {
  ESSNS_REQUIRE(req.scenario && req.start, "request scenario/start must be set");
  place_worker(worker_id);
  simulations_.fetch_add(1, std::memory_order_relaxed);
  obs::SpanTimer sim_timer("simulate");
  firelib::PropagationWorkspace& workspace = workspaces_[worker_id];
  const firelib::IgnitionMap& simulated = propagator_.propagate(
      *env_, *req.scenario, *req.start, req.end_time, workspace);
  SimulationResult result;
  if (req.target) {
    result.fitness =
        reference_fitness_
            ? jaccard_at_reference(*req.target, simulated, req.end_time,
                                   req.start_time)
            : jaccard_at(*req.target, simulated, req.end_time, req.start_time);
    result.burned = pack_burned(simulated, req.end_time);
  }
  if (req.keep_map) result.map = simulated;
  result.sim_seconds = sim_timer.stop();
  if (obs::metrics_enabled()) {
    obs::add_counter("sim.count", 1);
    obs::record_histogram("sim.seconds", result.sim_seconds);
  }
  return result;
}

std::vector<SimulationResult> SimulationService::run_batch_uncached(
    const std::vector<const SimulationRequest*>& requests) {
  if (obs::metrics_enabled() && !requests.empty())
    obs::record_histogram("sweep.batch_size",
                          static_cast<double>(requests.size()));
  if (backend_ == firelib::SweepBackend::kBatched && !requests.empty() &&
      !propagator_.reference_sweep()) {
    // The batch engine needs one (start map, horizon) per launch — exactly
    // what the cache paths and the fitness/map batch builders produce.
    // Targets and start times may differ per request (scoring is
    // per-request, after the launch).
    const SimulationRequest& first = *requests.front();
    bool launchable = true;
    for (const SimulationRequest* req : requests)
      if (req->start != first.start || req->end_time != first.end_time)
        launchable = false;
    if (launchable) return run_batch_batched(requests);
  }
  if (pool_) return pool_->evaluate(requests);
  std::vector<SimulationResult> results;
  results.reserve(requests.size());
  for (const SimulationRequest* req : requests)
    results.push_back(run_one(0, *req));
  return results;
}

std::vector<SimulationResult> SimulationService::run_batch_batched(
    const std::vector<const SimulationRequest*>& requests) {
  // One launch on the calling thread — the GPU-shaped execution model the
  // backend enum is the on-ramp for (a device backend submits here too).
  place_worker(0);
  if (!batch_engine_)
    batch_engine_ = std::make_unique<firelib::BatchSweep>(spread_model_);
  batch_engine_->set_simd_mode(propagator_.simd_mode());

  obs::SpanTimer batch_timer("sim.batch");
  std::vector<const firelib::Scenario*> scenarios;
  scenarios.reserve(requests.size());
  for (const SimulationRequest* req : requests)
    scenarios.push_back(req->scenario);
  const SimulationRequest& first = *requests.front();
  std::vector<firelib::IgnitionMap> maps =
      batch_engine_->sweep(*env_, scenarios, *first.start, first.end_time);
  const double batch_seconds = batch_timer.stop();
  // Cost attribution for the shared cache's eviction weighting: the launch
  // is one unit of work, split evenly (a perf heuristic, not a result).
  const double per_sim_seconds =
      batch_seconds / static_cast<double>(requests.size());
  simulations_.fetch_add(requests.size(), std::memory_order_relaxed);

  std::vector<SimulationResult> results(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const SimulationRequest& req = *requests[i];
    if (req.target) {
      results[i].fitness =
          reference_fitness_
              ? jaccard_at_reference(*req.target, maps[i], req.end_time,
                                     req.start_time)
              : jaccard_at(*req.target, maps[i], req.end_time, req.start_time);
      results[i].burned = pack_burned(maps[i], req.end_time);
    }
    if (req.keep_map) results[i].map = std::move(maps[i]);
    results[i].sim_seconds = per_sim_seconds;
  }
  if (obs::metrics_enabled()) {
    obs::add_counter("sim.count", requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i)
      obs::record_histogram("sim.seconds", per_sim_seconds);
  }
  return results;
}

std::vector<SimulationResult> SimulationService::run_batch(
    const std::vector<SimulationRequest>& requests) {
  if (requests.empty()) return {};
  ESSNS_TRACE_SPAN("sim.batch");

  // The cache applies to homogeneous batches — one (start, target, interval)
  // shared by every request, which is what fitness_batch / simulate_batch
  // produce. Mixed batches bypass it.
  bool homogeneous = cache_policy_ != cache::CachePolicy::kOff;
  const SimulationRequest& first = requests.front();
  for (const SimulationRequest& req : requests) {
    ESSNS_REQUIRE(req.scenario && req.start,
                  "request scenario/start must be set");
    if (req.start != first.start || req.target != first.target ||
        req.start_time != first.start_time || req.end_time != first.end_time)
      homogeneous = false;
  }
  if (homogeneous) {
    return cache_policy_ == cache::CachePolicy::kShared
               ? run_batch_shared(requests)
               : run_batch_step(requests);
  }

  std::vector<const SimulationRequest*> tasks;
  tasks.reserve(requests.size());
  for (const SimulationRequest& req : requests) tasks.push_back(&req);
  return run_batch_uncached(tasks);
}

std::vector<SimulationResult> SimulationService::run_batch_step(
    const std::vector<SimulationRequest>& requests) {
  // The step cache has no shard underneath to feed the registry (unlike
  // kShared, whose cache.* counts come from ScenarioCacheShard), so flush
  // the master-thread bookkeeping deltas once per batch instead.
  const std::size_t hits_before = cache_hits_;
  const std::size_t misses_before = cache_misses_;
  const std::size_t rejected_before = cache_insertions_rejected_;
  const std::size_t dedup_before = batch_dedup_hits_;
  const SimulationRequest& first = requests.front();
  CacheContext context;
  context.start = first.start;
  context.target = first.target;
  context.start_time = first.start_time;
  context.end_time = first.end_time;
  context.start_fingerprint = cache::map_fingerprint(*first.start);
  context.target_fingerprint =
      first.target ? cache::map_fingerprint(*first.target) : 0;
  context.valid = true;
  if (!(context == cache_context_)) {
    step_cache_.clear();
    step_cache_bytes_ = 0;
    cache_context_ = context;
  }

  // Plan the batch on the master thread: serve what the cache can, collapse
  // in-batch duplicates onto one scheduled simulation, simulate the rest.
  constexpr std::size_t kFromCache = static_cast<std::size_t>(-1);
  std::vector<SimulationResult> results(requests.size());
  std::vector<std::size_t> slot_of(requests.size(), kFromCache);
  std::vector<SimulationRequest> scheduled;
  std::vector<cache::ScenarioKey> scheduled_keys;
  std::unordered_map<cache::ScenarioKey, std::size_t, cache::ScenarioKeyHash>
      in_batch;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const SimulationRequest& req = requests[i];
    const cache::ScenarioKey key = cache::make_scenario_key(*req.scenario);
    const auto cached = step_cache_.find(key);
    // Step mode keeps the original behavior bit-for-bit: only an explicit
    // fitness record satisfies a fitness request (no re-scoring from maps).
    const bool satisfied = cached != step_cache_.end() &&
                           (!req.target || cached->second.find_fitness(0, 0)) &&
                           (!req.keep_map || cached->second.map);
    if (satisfied) {
      if (req.target) results[i].fitness = *cached->second.find_fitness(0, 0);
      if (req.keep_map) results[i].map = *cached->second.map;
      ++cache_hits_;
      continue;
    }
    const auto [it, inserted] = in_batch.try_emplace(key, scheduled.size());
    if (inserted) {
      scheduled.push_back(req);
      scheduled_keys.push_back(key);
      ++cache_misses_;
    } else {
      // A duplicate widens the scheduled request rather than re-simulating.
      scheduled[it->second].keep_map |= req.keep_map;
      ++cache_hits_;
      ++batch_dedup_hits_;
    }
    slot_of[i] = it->second;
  }

  std::vector<const SimulationRequest*> tasks;
  tasks.reserve(scheduled.size());
  for (const SimulationRequest& req : scheduled) tasks.push_back(&req);
  std::vector<SimulationResult> simulated = run_batch_uncached(tasks);

  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (slot_of[i] == kFromCache) continue;
    const SimulationRequest& req = requests[i];
    const SimulationResult& sim = simulated[slot_of[i]];
    if (req.target) {
      results[i].fitness = sim.fitness;
      results[i].burned = sim.burned;
    }
    if (req.keep_map) results[i].map = sim.map;
  }
  for (std::size_t slot = 0; slot < scheduled.size(); ++slot) {
    const cache::ScenarioKey& key = scheduled_keys[slot];
    const bool known = step_cache_.count(key) != 0;
    if (!known && step_cache_.size() >= step_cache_capacity_) {
      ++cache_insertions_rejected_;
      continue;
    }
    cache::CachedScenario& entry = step_cache_[key];
    const std::size_t charge_before = known ? cache::entry_charge(entry) : 0;
    if (scheduled[slot].target)
      entry.set_fitness(0, 0, simulated[slot].fitness);
    if (scheduled[slot].keep_map && !entry.map)
      entry.map = std::move(simulated[slot].map);
    step_cache_bytes_ += cache::entry_charge(entry) - charge_before;
  }
  if (obs::metrics_enabled()) {
    obs::add_counter("cache.hits", cache_hits_ - hits_before);
    obs::add_counter("cache.misses", cache_misses_ - misses_before);
    obs::add_counter("cache.insertions_rejected",
                     cache_insertions_rejected_ - rejected_before);
    obs::add_counter("sweep.batch_dedup_hits",
                     batch_dedup_hits_ - dedup_before);
  }
  return results;
}

std::vector<SimulationResult> SimulationService::run_batch_shared(
    const std::vector<SimulationRequest>& requests) {
  if (!shared_cache_)
    shared_cache_ = std::make_shared<cache::SharedScenarioCache>(
        cache_mem_bytes_);

  // Keys carry the *simulation* context (start map, end time) only; the
  // scoring target lives in per-entry fitness records. So unlike kStep a
  // context change invalidates nothing: a PS map pass fills the entries the
  // next step's OS scores against its new target, and a later job or serve
  // refresh over the same interval finds both maps and scores.
  if (!env_fingerprint_)
    env_fingerprint_ = cache::environment_fingerprint(*env_);
  const SimulationRequest& first = requests.front();
  const std::uint64_t start_fp = cache::map_fingerprint(*first.start);
  const std::uint64_t context =
      cache::context_fingerprint(*env_fingerprint_, start_fp, first.end_time);
  cache::FitnessQuery query;
  if (first.target) {
    query.target_fingerprint = cache::map_fingerprint(*first.target);
    query.start_time_bits = std::bit_cast<std::uint64_t>(first.start_time);
  }

  constexpr std::size_t kFromCache = static_cast<std::size_t>(-1);
  std::vector<SimulationResult> results(requests.size());
  std::vector<std::size_t> slot_of(requests.size(), kFromCache);
  std::vector<SimulationRequest> scheduled;
  std::vector<cache::ScenarioKey> scheduled_keys;
  std::unordered_map<cache::ScenarioKey, std::size_t, cache::ScenarioKeyHash>
      in_batch;
  const std::size_t dedup_before = batch_dedup_hits_;
  // Mirrors run_batch_step's scheduling skeleton on purpose: the step path
  // is frozen bit-for-bit, so the two evolve independently.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const SimulationRequest& req = requests[i];
    cache::ScenarioKey key = cache::make_scenario_key(*req.scenario);
    key.context = context;
    // In-batch duplicates first: the scheduled simulation will serve them,
    // so probing the shared cache would only take the shard mutex to record
    // a phantom miss (skewing the cache-global hit-rate on exactly the
    // duplicate-heavy batches the cache targets).
    if (const auto dup = in_batch.find(key); dup != in_batch.end()) {
      ++cache_hits_;
      ++batch_dedup_hits_;
      slot_of[i] = dup->second;
      continue;
    }
    const auto cached =
        shared_cache_->find(key, req.keep_map, req.target ? &query : nullptr);
    if (cached) {
      if (req.target) {
        const double* fitness = cached->find_fitness(
            query.target_fingerprint, query.start_time_bits);
        if (fitness) {
          results[i].fitness = *fitness;
        } else {
          // New target for a cached map: re-score the byte-exact map (a
          // single pass, orders of magnitude cheaper than re-simulating)
          // and record the score for the next asker.
          results[i].fitness =
              reference_fitness_
                  ? jaccard_at_reference(*req.target, *cached->map,
                                         req.end_time, req.start_time)
                  : jaccard_at(*req.target, *cached->map, req.end_time,
                               req.start_time);
          cache::CachedScenario scored;
          scored.set_fitness(query.target_fingerprint, query.start_time_bits,
                             results[i].fitness);
          const cache::InsertOutcome outcome =
              shared_cache_->insert(key, std::move(scored), 0.0);
          cache_evictions_ += outcome.evictions;
          if (outcome.rejected) ++cache_insertions_rejected_;
        }
      }
      if (req.keep_map) results[i].map = *cached->map;
      ++cache_hits_;
      continue;
    }
    in_batch.emplace(key, scheduled.size());
    slot_of[i] = scheduled.size();
    scheduled.push_back(req);
    // Always keep the map on a shared-mode miss: a fitness-only request
    // costs one extra map copy now, but the map is exactly what a later
    // job's SS pass over the same interval (or a later target) would
    // otherwise re-simulate. The byte budget absorbs the footprint.
    scheduled.back().keep_map = true;
    scheduled_keys.push_back(key);
    ++cache_misses_;
  }

  std::vector<const SimulationRequest*> tasks;
  tasks.reserve(scheduled.size());
  for (const SimulationRequest& req : scheduled) tasks.push_back(&req);
  std::vector<SimulationResult> simulated = run_batch_uncached(tasks);

  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (slot_of[i] == kFromCache) continue;
    const SimulationRequest& req = requests[i];
    const SimulationResult& sim = simulated[slot_of[i]];
    if (req.target) {
      results[i].fitness = sim.fitness;
      results[i].burned = sim.burned;
    }
    if (req.keep_map) results[i].map = sim.map;
  }
  for (std::size_t slot = 0; slot < scheduled.size(); ++slot) {
    cache::CachedScenario value;
    if (scheduled[slot].target)
      value.set_fitness(query.target_fingerprint, query.start_time_bits,
                        simulated[slot].fitness);
    value.map = std::move(simulated[slot].map);
    const cache::InsertOutcome outcome = shared_cache_->insert(
        scheduled_keys[slot], std::move(value), simulated[slot].sim_seconds);
    cache_evictions_ += outcome.evictions;
    if (outcome.rejected) ++cache_insertions_rejected_;
  }
  // The shared cache's own shards feed the cache.* registry counts; the
  // in-batch dedup happens before the cache is touched, so flush it here
  // (once per batch, master thread).
  if (obs::metrics_enabled())
    obs::add_counter("sweep.batch_dedup_hits",
                     batch_dedup_hits_ - dedup_before);
  return results;
}

std::vector<firelib::IgnitionMap> SimulationService::simulate_batch(
    const std::vector<firelib::Scenario>& scenarios,
    const firelib::IgnitionMap& start, double end_time) {
  std::vector<SimulationRequest> requests(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    requests[i].scenario = &scenarios[i];
    requests[i].start = &start;
    requests[i].end_time = end_time;
  }
  std::vector<SimulationResult> results = run_batch(requests);
  std::vector<firelib::IgnitionMap> maps;
  maps.reserve(results.size());
  for (SimulationResult& result : results) maps.push_back(std::move(result.map));
  return maps;
}

std::vector<SimulationRequest> fitness_requests(
    const std::vector<firelib::Scenario>& scenarios,
    const firelib::IgnitionMap& start, const firelib::IgnitionMap& target,
    double start_time, double end_time) {
  std::vector<SimulationRequest> requests(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    requests[i].scenario = &scenarios[i];
    requests[i].start = &start;
    requests[i].start_time = start_time;
    requests[i].end_time = end_time;
    requests[i].target = &target;
    requests[i].keep_map = false;
  }
  return requests;
}

std::vector<double> SimulationService::fitness_batch(
    const std::vector<firelib::Scenario>& scenarios,
    const firelib::IgnitionMap& start, const firelib::IgnitionMap& target,
    double start_time, double end_time) {
  const std::vector<SimulationResult> results = run_batch(
      fitness_requests(scenarios, start, target, start_time, end_time));
  std::vector<double> fitness;
  fitness.reserve(results.size());
  for (const SimulationResult& result : results)
    fitness.push_back(result.fitness);
  return fitness;
}

}  // namespace essns::ess
