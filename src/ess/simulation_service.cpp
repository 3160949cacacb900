#include "ess/simulation_service.hpp"

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
  worker_named_.assign(workspaces_.size(), 0);
  if (workers > 1) {
    pool_ = std::make_unique<
        parallel::MasterWorker<const firelib::Scenario*, SimulationResult>>(
        workers,
        [this](unsigned id, const firelib::Scenario* const& scenario) {
          return run_one(id + 1, *scenario);
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

void SimulationService::name_worker(unsigned worker_id) {
  if (worker_id == 0 || worker_named_[worker_id]) return;
  worker_named_[worker_id] = 1;
  obs::set_thread_name("sim-worker-" + std::to_string(worker_id));
}

firelib::IgnitionMap SimulationService::simulate(
    const firelib::Scenario& scenario, const firelib::IgnitionMap& start,
    double end_time) {
  simulations_.fetch_add(1, std::memory_order_relaxed);
  ESSNS_TRACE_SPAN("simulate");
  return propagator_.propagate(*env_, scenario, start, end_time,
                               workspaces_[0]);
}

SimulationResult SimulationService::run_one(unsigned worker_id,
                                            const firelib::Scenario& scenario) {
  name_worker(worker_id);
  simulations_.fetch_add(1, std::memory_order_relaxed);
  obs::SpanTimer sim_timer("simulate");
  firelib::PropagationWorkspace& workspace = workspaces_[worker_id];
  propagator_.propagate(*env_, scenario, *context_.start, context_.end_time,
                        workspace);
  SimulationResult result;
  result.burned = workspace.last_burned();
  if (context_.scoring) result.fitness = jaccard(*context_.scoring, result.burned);
  result.sim_seconds = sim_timer.stop();
  if (obs::metrics_enabled()) {
    obs::add_counter("sim.count", 1);
    obs::record_histogram("sim.seconds", result.sim_seconds);
  }
  return result;
}

std::vector<SimulationResult> SimulationService::run_batch_uncached(
    const std::vector<const firelib::Scenario*>& scenarios) {
  if (scenarios.empty()) return {};
  if (obs::metrics_enabled())
    obs::record_histogram("sweep.batch_size",
                          static_cast<double>(scenarios.size()));
  if (pool_) return pool_->evaluate(scenarios);
  std::vector<SimulationResult> results;
  results.reserve(scenarios.size());
  for (const firelib::Scenario* scenario : scenarios)
    results.push_back(run_one(0, *scenario));
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

void SimulationService::enter_context(Observations& observations,
                                      int start_line, bool scored,
                                      double start_time, double end_time) {
  Context& c = context_;
  if (c.valid && c.observations == &observations &&
      c.start_line == start_line && c.scored == scored &&
      c.start_time == start_time && c.end_time == end_time)
    return;
  step_cache_.clear();
  step_cache_bytes_ = 0;
  c = Context{};  // invalid until every derived field is rebuilt
  const ObservationDigest& digest = observations.digest();
  const auto line_count = static_cast<int>(digest.lines.size());
  ESSNS_REQUIRE(start_line >= 0 && start_line + (scored ? 1 : 0) < line_count,
                "context line out of range");
  c.observations = &observations;
  c.start_line = start_line;
  c.scored = scored;
  c.start_time = start_time;
  c.end_time = end_time;
  c.start = &observations.line(start_line);
  const ObservedLine& start = digest.lines[static_cast<std::size_t>(start_line)];
  const ObservedLine* target =
      scored ? &digest.lines[static_cast<std::size_t>(start_line) + 1]
             : nullptr;
  if (target) c.scoring = &target->scoring;
  if (cache_policy_ == cache::CachePolicy::kShared) {
    ESSNS_REQUIRE(digest.fingerprinted,
                  "the shared cache needs fingerprinted fire lines");
    c.start_fingerprint = start.fingerprint;
    c.target_fingerprint = target ? target->fingerprint : 0;
  }
  c.valid = true;
}

void SimulationService::enter_step(Observations& observations,
                                   int target_line) {
  const std::vector<double>& times = observations.digest().times;
  ESSNS_REQUIRE(target_line >= 1 &&
                    static_cast<std::size_t>(target_line) < times.size(),
                "step target line out of range");
  const auto k = static_cast<std::size_t>(target_line);
  enter_context(observations, target_line - 1, true, times[k - 1], times[k]);
}

Observations& SimulationService::raw_observations(
    const firelib::IgnitionMap& start, const firelib::IgnitionMap* target,
    double start_time, double end_time) {
  if (raw_ && context_.valid && context_.observations == &*raw_ &&
      raw_start_ == &start && raw_target_ == target &&
      context_.start_time == start_time && context_.end_time == end_time &&
      same_bits(start, raw_->line(0)) &&
      (!target || same_bits(*target, raw_->line(1))))
    return *raw_;
  const bool fingerprints = cache_policy_ == cache::CachePolicy::kShared;
  auto digest = std::make_shared<ObservationDigest>();
  digest->fingerprinted = fingerprints;
  digest->times.push_back(start_time);
  ObservedLine& start_line = digest->lines.emplace_back();
  if (fingerprints) start_line.fingerprint = cache::map_fingerprint(start);
  std::vector<firelib::IgnitionMap> copies;
  copies.reserve(2);
  copies.push_back(start);
  if (target) {
    digest->times.push_back(end_time);
    ObservedLine& target_line = digest->lines.emplace_back();
    if (fingerprints) target_line.fingerprint = cache::map_fingerprint(*target);
    target_line.scoring = make_scoring_target(*target, start_time, end_time);
    copies.push_back(*target);
  }
  context_.valid = false;
  raw_.emplace(std::move(digest), std::move(copies));
  raw_start_ = &start;
  raw_target_ = target;
  return *raw_;
}

void SimulationService::begin_step(const firelib::IgnitionMap& start,
                                   const firelib::IgnitionMap& target,
                                   double start_time, double end_time) {
  clear_step_cache();
  Observations& observations =
      raw_observations(start, &target, start_time, end_time);
  enter_step(observations, 1);
}

void SimulationService::begin_step(Observations& observations,
                                   int target_line) {
  clear_step_cache();
  enter_step(observations, target_line);
}

double SimulationService::score(const firelib::Scenario& scenario,
                                const firelib::IgnitionMap& start,
                                const firelib::IgnitionMap& target,
                                double start_time, double end_time) {
  return score(scenario, raw_observations(start, &target, start_time, end_time),
               1);
}

double SimulationService::score(const firelib::Scenario& scenario,
                                Observations& observations, int target_line) {
  enter_step(observations, target_line);
  return run_one(0, scenario).fitness;
}

std::vector<const BurnedCells*> SimulationService::step_records(
    const std::vector<firelib::Scenario>& scenarios,
    const firelib::IgnitionMap& start, double end_time) const {
  if (!raw_ || raw_start_ != &start || !same_bits(start, raw_->line(0)))
    return std::vector<const BurnedCells*>(scenarios.size(), nullptr);
  return step_records(scenarios, *raw_, 0, end_time);
}

std::vector<const BurnedCells*> SimulationService::step_records(
    const std::vector<firelib::Scenario>& scenarios,
    const Observations& observations, int start_line, double end_time) const {
  std::vector<const BurnedCells*> records(scenarios.size(), nullptr);
  if (!context_.valid || context_.observations != &observations ||
      context_.start_line != start_line || context_.end_time != end_time)
    return records;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const auto it = step_cache_.find(cache::make_scenario_key(scenarios[i]));
    if (it != step_cache_.end() && !it->second.burned.empty())
      records[i] = &it->second.burned;
  }
  return records;
}

void SimulationService::remember(const cache::ScenarioKey& key,
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
  if (context_.scored) entry.set_fitness(0, 0, sim.fitness);
  if (entry.burned.empty()) entry.burned = sim.burned;
  step_cache_bytes_ += cache::entry_charge(entry) - charge_before;
}

std::vector<SimulationResult> SimulationService::run_batch(
    const std::vector<SimulationRequest>& requests) {
  if (requests.empty()) return {};
  const SimulationRequest& first = requests.front();
  std::vector<const firelib::Scenario*> scenarios;
  scenarios.reserve(requests.size());
  for (const SimulationRequest& req : requests) {
    ESSNS_REQUIRE(req.scenario && req.start,
                  "request scenario/start must be set");
    ESSNS_REQUIRE(req.start == first.start && req.target == first.target &&
                      req.start_time == first.start_time &&
                      req.end_time == first.end_time,
                  "a batch's requests must share one start map, target and "
                  "interval");
    scenarios.push_back(req.scenario);
  }
  Observations& observations = raw_observations(
      *first.start, first.target, first.start_time, first.end_time);
  enter_context(observations, 0, first.target != nullptr, first.start_time,
                first.end_time);
  return run_in_context(scenarios);
}

std::vector<SimulationResult> SimulationService::run_in_context(
    const std::vector<const firelib::Scenario*>& scenarios) {
  ESSNS_TRACE_SPAN("sim.batch");
  if (cache_policy_ != cache::CachePolicy::kOff)
    return run_batch_cached(scenarios);

  // No memoization: every request simulates, and the step store keeps the
  // records for the Statistical Stage.
  std::vector<SimulationResult> results = run_batch_uncached(scenarios);
  for (std::size_t i = 0; i < scenarios.size(); ++i)
    remember(cache::make_scenario_key(*scenarios[i]), results[i]);
  return results;
}

std::vector<SimulationResult> SimulationService::run_batch_cached(
    const std::vector<const firelib::Scenario*>& scenarios) {
  const bool shared = cache_policy_ == cache::CachePolicy::kShared;
  const bool scored = context_.scored;
  // Shared keys carry the *simulation* context (start map, end time) only;
  // the scoring target lives in per-entry fitness records. So unlike kStep
  // a context change invalidates nothing: a PS pass fills the entries the
  // next step's OS scores against its new target, and a later job (a serve
  // extension, say) over the same interval finds both records and scores.
  std::uint64_t key_context = 0;
  cache::FitnessQuery query;
  if (shared) {
    if (!shared_cache_)
      shared_cache_ = std::make_shared<cache::SharedScenarioCache>(
          cache_mem_bytes_);
    if (!env_fingerprint_)
      env_fingerprint_ = cache::environment_fingerprint(*env_);
    key_context = cache::context_fingerprint(
        *env_fingerprint_, context_.start_fingerprint, context_.end_time);
    if (scored)
      query = {context_.target_fingerprint,
               std::bit_cast<std::uint64_t>(context_.start_time)};
  }
  // Serve `key` from the cache into `out`; false on a miss.
  const auto serve = [&](const cache::ScenarioKey& key, SimulationResult& out) {
    if (!shared) {
      // Step mode keeps the original behavior bit-for-bit: only an
      // explicit fitness record satisfies a scored request (no re-scoring).
      const auto cached = step_cache_.find(key);
      if (cached == step_cache_.end() ||
          (scored && !cached->second.find_fitness(0, 0)))
        return false;
      if (scored)
        out.fitness = *cached->second.find_fitness(0, 0);
      else
        out.burned = cached->second.burned;
      return true;
    }
    const auto cached =
        shared_cache_->find(key, !scored, scored ? &query : nullptr);
    if (!cached) return false;
    if (!scored) {
      out.burned = cached->burned;
    } else if (const double* fitness = cached->find_fitness(
                   query.target_fingerprint, query.start_time_bits)) {
      out.fitness = *fitness;
    } else {
      // New target for a cached record: re-score it (one pass over words)
      // and record the score for the next asker.
      out.fitness = jaccard(*context_.scoring, cached->burned);
      cache::CachedScenario scored_entry;
      scored_entry.set_fitness(query.target_fingerprint,
                               query.start_time_bits, out.fitness);
      const cache::InsertOutcome outcome =
          shared_cache_->insert(key, std::move(scored_entry), 0.0);
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
  std::vector<SimulationResult> results(scenarios.size());
  std::vector<std::size_t> slot_of(scenarios.size(), kFromCache);
  std::vector<const firelib::Scenario*> scheduled;
  std::vector<cache::ScenarioKey> scheduled_keys;
  std::unordered_map<cache::ScenarioKey, std::size_t, cache::ScenarioKeyHash>
      in_batch;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    cache::ScenarioKey key = cache::make_scenario_key(*scenarios[i]);
    key.context = key_context;
    if (const auto dup = in_batch.find(key); dup != in_batch.end()) {
      ++cache_hits_;
      ++batch_dedup_hits_;
      slot_of[i] = dup->second;
      continue;
    }
    if (serve(key, results[i])) {
      ++cache_hits_;
      continue;
    }
    in_batch.emplace(key, scheduled.size());
    slot_of[i] = scheduled.size();
    scheduled.push_back(scenarios[i]);
    scheduled_keys.push_back(key);
    ++cache_misses_;
  }

  const std::vector<SimulationResult> simulated = run_batch_uncached(scheduled);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (slot_of[i] == kFromCache) continue;
    results[i].fitness = simulated[slot_of[i]].fitness;
    results[i].burned = simulated[slot_of[i]].burned;
  }
  for (std::size_t slot = 0; slot < scheduled.size(); ++slot) {
    cache::ScenarioKey step_key = scheduled_keys[slot];
    step_key.context = 0;
    remember(step_key, simulated[slot]);
    if (!shared) continue;
    cache::CachedScenario value;
    if (scored)
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

namespace {

std::vector<const firelib::Scenario*> pointers_to(
    const std::vector<firelib::Scenario>& scenarios) {
  std::vector<const firelib::Scenario*> pointers;
  pointers.reserve(scenarios.size());
  for (const firelib::Scenario& scenario : scenarios)
    pointers.push_back(&scenario);
  return pointers;
}

}  // namespace

std::vector<BurnedCells> SimulationService::simulate_batch(
    const std::vector<firelib::Scenario>& scenarios,
    const firelib::IgnitionMap& start, double end_time) {
  if (scenarios.empty()) return {};
  return simulate_batch(scenarios,
                        raw_observations(start, nullptr, 0.0, end_time), 0,
                        end_time);
}

std::vector<BurnedCells> SimulationService::simulate_batch(
    const std::vector<firelib::Scenario>& scenarios,
    Observations& observations, int start_line, double end_time) {
  if (scenarios.empty()) return {};
  enter_context(observations, start_line, false, 0.0, end_time);
  std::vector<SimulationResult> results = run_in_context(pointers_to(scenarios));
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
  if (scenarios.empty()) return {};
  return fitness_batch(
      scenarios, raw_observations(start, &target, start_time, end_time), 1);
}

std::vector<double> SimulationService::fitness_batch(
    const std::vector<firelib::Scenario>& scenarios,
    Observations& observations, int target_line) {
  if (scenarios.empty()) return {};
  enter_step(observations, target_line);
  const std::vector<SimulationResult> results =
      run_in_context(pointers_to(scenarios));
  std::vector<double> fitness;
  fitness.reserve(results.size());
  for (const SimulationResult& result : results)
    fitness.push_back(result.fitness);
  return fitness;
}

}  // namespace essns::ess
