#include "ess/simulation_service.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/error.hpp"
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
  context_.valid = false;
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
  propagator_.propagate(*env_, *req.scenario, *req.start, req.end_time,
                        workspace);
  SimulationResult result;
  result.burned = workspace.last_burned();
  // A scored request's target is the current context's (every batch runs
  // in one context).
  if (req.target) result.fitness = jaccard(context_.scoring, result.burned);
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
      !propagator_.reference_sweep())
    return run_batch_batched(requests);
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
  const std::vector<firelib::IgnitionMap> maps =
      batch_engine_->sweep(*env_, scenarios, *first.start, first.end_time);
  const double batch_seconds = batch_timer.stop();
  // Cost attribution for the shared cache's eviction weighting: the launch
  // is one unit of work, split evenly (a perf heuristic, not a result).
  const double per_sim_seconds =
      batch_seconds / static_cast<double>(requests.size());
  simulations_.fetch_add(requests.size(), std::memory_order_relaxed);

  std::vector<SimulationResult> results(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    // The batch engine emits maps; pack each once at the launch's horizon.
    results[i].burned = firelib::burned_cells(maps[i], first.end_time);
    if (first.target)
      results[i].fitness = jaccard(context_.scoring, results[i].burned);
    results[i].sim_seconds = per_sim_seconds;
  }
  if (obs::metrics_enabled()) {
    obs::add_counter("sim.count", requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i)
      obs::record_histogram("sim.seconds", per_sim_seconds);
  }
  return results;
}

namespace {

/// Bitwise equality: the context check must see a NaN or a -0.0 written
/// in place, which `==` on doubles would not.
bool same_bits(const firelib::IgnitionMap& a, const firelib::IgnitionMap& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

void SimulationService::enter_context(const SimulationRequest& first) {
  Context& c = context_;
  if (c.valid && c.start == first.start && c.target == first.target &&
      c.start_time == first.start_time && c.end_time == first.end_time &&
      same_bits(*first.start, c.start_copy) &&
      (!first.target || same_bits(*first.target, c.target_copy)))
    return;
  step_cache_.clear();
  step_cache_bytes_ = 0;
  c.valid = false;  // until every derived field is rebuilt
  c.start = first.start;
  c.target = first.target;
  c.start_time = first.start_time;
  c.end_time = first.end_time;
  c.start_copy = *first.start;
  c.scoring = {};
  if (first.target) {
    c.target_copy = *first.target;
    c.scoring = make_scoring_target(*first.target, first.start_time,
                                    first.end_time);
  }
  if (cache_policy_ == cache::CachePolicy::kShared) {
    c.start_fingerprint = cache::map_fingerprint(*first.start);
    c.target_fingerprint =
        first.target ? cache::map_fingerprint(*first.target) : 0;
  }
  c.valid = true;
}

void SimulationService::begin_step(const firelib::IgnitionMap& start,
                                   const firelib::IgnitionMap& target,
                                   double start_time, double end_time) {
  clear_step_cache();
  SimulationRequest probe;
  probe.start = &start;
  probe.target = &target;
  probe.start_time = start_time;
  probe.end_time = end_time;
  enter_context(probe);
}

double SimulationService::score(const firelib::Scenario& scenario,
                                const firelib::IgnitionMap& start,
                                const firelib::IgnitionMap& target,
                                double start_time, double end_time) {
  const SimulationRequest req{&scenario, &start, start_time, end_time,
                              &target};
  enter_context(req);
  return run_one(0, req).fitness;
}

std::vector<const BurnedCells*> SimulationService::step_records(
    const std::vector<firelib::Scenario>& scenarios,
    const firelib::IgnitionMap& start, double end_time) const {
  std::vector<const BurnedCells*> records(scenarios.size(), nullptr);
  if (!context_.valid || context_.start != &start ||
      context_.end_time != end_time || !same_bits(start, context_.start_copy))
    return records;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const auto it = step_cache_.find(cache::make_scenario_key(scenarios[i]));
    if (it != step_cache_.end() && !it->second.burned.empty())
      records[i] = &it->second.burned;
  }
  return records;
}

void SimulationService::remember(const cache::ScenarioKey& key,
                                 const SimulationRequest& req,
                                 const SimulationResult& sim) {
  const auto found = step_cache_.find(key);
  const bool known = found != step_cache_.end();
  if (!known && step_cache_.size() >= step_cache_capacity_) {
    if (cache_policy_ == cache::CachePolicy::kStep)
      ++cache_insertions_rejected_;
    return;
  }
  cache::CachedScenario& entry = known ? found->second : step_cache_[key];
  const std::size_t charge_before = known ? cache::entry_charge(entry) : 0;
  if (req.target) entry.set_fitness(0, 0, sim.fitness);
  if (entry.burned.empty()) entry.burned = sim.burned;
  step_cache_bytes_ += cache::entry_charge(entry) - charge_before;
}

std::vector<SimulationResult> SimulationService::run_batch(
    const std::vector<SimulationRequest>& requests) {
  if (requests.empty()) return {};
  ESSNS_TRACE_SPAN("sim.batch");

  const SimulationRequest& first = requests.front();
  for (const SimulationRequest& req : requests) {
    ESSNS_REQUIRE(req.scenario && req.start,
                  "request scenario/start must be set");
    ESSNS_REQUIRE(req.start == first.start && req.target == first.target &&
                      req.start_time == first.start_time &&
                      req.end_time == first.end_time,
                  "a batch's requests must share one start map, target and "
                  "interval");
  }
  enter_context(first);
  if (cache_policy_ != cache::CachePolicy::kOff)
    return run_batch_cached(requests);

  // No memoization: every request simulates, and the step store keeps the
  // records for the Statistical Stage.
  std::vector<const SimulationRequest*> tasks;
  tasks.reserve(requests.size());
  for (const SimulationRequest& req : requests) tasks.push_back(&req);
  std::vector<SimulationResult> results = run_batch_uncached(tasks);
  for (std::size_t i = 0; i < requests.size(); ++i)
    remember(cache::make_scenario_key(*requests[i].scenario), requests[i],
             results[i]);
  return results;
}

std::vector<SimulationResult> SimulationService::run_batch_cached(
    const std::vector<SimulationRequest>& requests) {
  const bool shared = cache_policy_ == cache::CachePolicy::kShared;
  const SimulationRequest& first = requests.front();
  // Shared keys carry the *simulation* context (start map, end time) only;
  // the scoring target lives in per-entry fitness records. So unlike kStep
  // a context change invalidates nothing: a PS pass fills the entries the
  // next step's OS scores against its new target, and a later job or serve
  // refresh over the same interval finds both records and scores.
  std::uint64_t key_context = 0;
  cache::FitnessQuery query;
  if (shared) {
    if (!shared_cache_)
      shared_cache_ = std::make_shared<cache::SharedScenarioCache>(
          cache_mem_bytes_);
    if (!env_fingerprint_)
      env_fingerprint_ = cache::environment_fingerprint(*env_);
    key_context = cache::context_fingerprint(
        *env_fingerprint_, context_.start_fingerprint, first.end_time);
    if (first.target)
      query = {context_.target_fingerprint,
               std::bit_cast<std::uint64_t>(first.start_time)};
  }
  // Serve request `req` from the cache into `out`; false on a miss.
  const auto serve = [&](const cache::ScenarioKey& key,
                         const SimulationRequest& req,
                         SimulationResult& out) {
    if (!shared) {
      // Step mode keeps the original behavior bit-for-bit: only an
      // explicit fitness record satisfies a scored request (no re-scoring).
      const auto cached = step_cache_.find(key);
      if (cached == step_cache_.end() ||
          (req.target && !cached->second.find_fitness(0, 0)))
        return false;
      if (req.target)
        out.fitness = *cached->second.find_fitness(0, 0);
      else
        out.burned = cached->second.burned;
      return true;
    }
    const auto cached =
        shared_cache_->find(key, !req.target, req.target ? &query : nullptr);
    if (!cached) return false;
    if (!req.target) {
      out.burned = cached->burned;
    } else if (const double* fitness = cached->find_fitness(
                   query.target_fingerprint, query.start_time_bits)) {
      out.fitness = *fitness;
    } else {
      // New target for a cached record: re-score it (one pass over words)
      // and record the score for the next asker.
      out.fitness = jaccard(context_.scoring, cached->burned);
      cache::CachedScenario scored;
      scored.set_fitness(query.target_fingerprint, query.start_time_bits,
                         out.fitness);
      const cache::InsertOutcome outcome =
          shared_cache_->insert(key, std::move(scored), 0.0);
      cache_evictions_ += outcome.evictions;
      if (outcome.rejected) ++cache_insertions_rejected_;
    }
    return true;
  };

  // Plan the batch on the master thread. In-batch duplicates come first:
  // the scheduled simulation serves them, so probing the shared cache would
  // only take the shard mutex to record a phantom miss (skewing the
  // cache-global hit-rate on exactly the duplicate-heavy batches the cache
  // targets). Then the cache serves what it can and the rest simulate.
  const std::size_t hits_before = cache_hits_;
  const std::size_t misses_before = cache_misses_;
  const std::size_t rejected_before = cache_insertions_rejected_;
  const std::size_t dedup_before = batch_dedup_hits_;
  constexpr std::size_t kFromCache = static_cast<std::size_t>(-1);
  std::vector<SimulationResult> results(requests.size());
  std::vector<std::size_t> slot_of(requests.size(), kFromCache);
  std::vector<const SimulationRequest*> scheduled;
  std::vector<cache::ScenarioKey> scheduled_keys;
  std::unordered_map<cache::ScenarioKey, std::size_t, cache::ScenarioKeyHash>
      in_batch;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const SimulationRequest& req = requests[i];
    cache::ScenarioKey key = cache::make_scenario_key(*req.scenario);
    key.context = key_context;
    if (const auto dup = in_batch.find(key); dup != in_batch.end()) {
      ++cache_hits_;
      ++batch_dedup_hits_;
      slot_of[i] = dup->second;
      continue;
    }
    if (serve(key, req, results[i])) {
      ++cache_hits_;
      continue;
    }
    in_batch.emplace(key, scheduled.size());
    slot_of[i] = scheduled.size();
    scheduled.push_back(&req);
    scheduled_keys.push_back(key);
    ++cache_misses_;
  }

  const std::vector<SimulationResult> simulated = run_batch_uncached(scheduled);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (slot_of[i] == kFromCache) continue;
    results[i].fitness = simulated[slot_of[i]].fitness;
    results[i].burned = simulated[slot_of[i]].burned;
  }
  for (std::size_t slot = 0; slot < scheduled.size(); ++slot) {
    cache::ScenarioKey step_key = scheduled_keys[slot];
    step_key.context = 0;
    remember(step_key, *scheduled[slot], simulated[slot]);
    if (!shared) continue;
    cache::CachedScenario value;
    if (scheduled[slot]->target)
      value.set_fitness(query.target_fingerprint, query.start_time_bits,
                        simulated[slot].fitness);
    value.burned = simulated[slot].burned;
    const cache::InsertOutcome outcome = shared_cache_->insert(
        scheduled_keys[slot], std::move(value), simulated[slot].sim_seconds);
    cache_evictions_ += outcome.evictions;
    if (outcome.rejected) ++cache_insertions_rejected_;
  }
  // Flush the master-thread bookkeeping once per batch. The shared cache's
  // own shards feed the cache.* counts; the step store has no shard
  // underneath, and the in-batch dedup happens before either is touched.
  if (obs::metrics_enabled()) {
    if (!shared) {
      obs::add_counter("cache.hits", cache_hits_ - hits_before);
      obs::add_counter("cache.misses", cache_misses_ - misses_before);
      obs::add_counter("cache.insertions_rejected",
                       cache_insertions_rejected_ - rejected_before);
    }
    obs::add_counter("sweep.batch_dedup_hits",
                     batch_dedup_hits_ - dedup_before);
  }
  return results;
}

std::vector<BurnedCells> SimulationService::simulate_batch(
    const std::vector<firelib::Scenario>& scenarios,
    const firelib::IgnitionMap& start, double end_time) {
  std::vector<SimulationRequest> requests(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    requests[i].scenario = &scenarios[i];
    requests[i].start = &start;
    requests[i].end_time = end_time;
  }
  std::vector<SimulationResult> results = run_batch(requests);
  std::vector<BurnedCells> records;
  records.reserve(results.size());
  for (SimulationResult& result : results)
    records.push_back(std::move(result.burned));
  return records;
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
