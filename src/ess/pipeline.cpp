#include "ess/pipeline.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "ess/fitness.hpp"
#include "ess/statistical.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace essns::ess {

double PipelineResult::mean_quality() const {
  if (steps.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& s : steps) sum += s.prediction_quality;
  return sum / static_cast<double>(steps.size());
}

double PipelineResult::total_seconds() const {
  double sum = 0.0;
  for (const auto& s : steps) sum += s.elapsed_seconds;
  return sum;
}

std::size_t PipelineResult::total_evaluations() const {
  std::size_t sum = 0;
  for (const auto& s : steps) sum += s.os_evaluations;
  return sum;
}

std::size_t PipelineResult::total_cache_hits() const {
  std::size_t sum = 0;
  for (const auto& s : steps) sum += s.cache_hits;
  return sum;
}

std::size_t PipelineResult::total_cache_misses() const {
  std::size_t sum = 0;
  for (const auto& s : steps) sum += s.cache_misses;
  return sum;
}

std::size_t PipelineResult::total_cache_evictions() const {
  std::size_t sum = 0;
  for (const auto& s : steps) sum += s.cache_evictions;
  return sum;
}

std::size_t PipelineResult::total_cache_insertions_rejected() const {
  std::size_t sum = 0;
  for (const auto& s : steps) sum += s.cache_insertions_rejected;
  return sum;
}

std::size_t PipelineResult::total_batch_dedup_hits() const {
  std::size_t sum = 0;
  for (const auto& s : steps) sum += s.batch_dedup_hits;
  return sum;
}

std::size_t PipelineResult::max_cache_bytes() const {
  std::size_t peak = 0;
  for (const auto& s : steps) peak = std::max(peak, s.cache_bytes);
  return peak;
}

double PipelineResult::cache_hit_rate() const {
  const std::size_t hits = total_cache_hits();
  const std::size_t total = hits + total_cache_misses();
  return total == 0 ? 0.0 : static_cast<double>(hits) /
                                static_cast<double>(total);
}

PredictionPipeline::PredictionPipeline(const firelib::FireEnvironment& env,
                                       const synth::GroundTruth& truth,
                                       PipelineConfig config)
    : PredictionPipeline(
          env,
          Observations(truth,
                       config.cache_policy == cache::CachePolicy::kShared),
          config) {}

PredictionPipeline::PredictionPipeline(const firelib::FireEnvironment& env,
                                       Observations observations,
                                       PipelineConfig config)
    : env_(&env), observations_(std::move(observations)), config_(config),
      last_probability_(env.rows(), env.cols(), 0.0),
      last_prediction_(env.rows(), env.cols(), 0) {
  ESSNS_REQUIRE(observations_.digest().steps() >= 2,
                "pipeline needs >= 2 steps (calibration + prediction)");
  ESSNS_REQUIRE(config.workers >= 1, "workers >= 1");
  ESSNS_REQUIRE(!config.lanes || config.lanes->lanes() == config.workers,
                "borrowed lanes must number config.workers");
}

PipelineResult PredictionPipeline::run(Optimizer& optimizer, Rng& rng) {
  PipelineResult result;
  result.optimizer_name = optimizer.name();

  const std::unique_ptr<parallel::MasterWorker> job_lanes =
      config_.lanes ? nullptr : parallel::make_job_lanes(config_.workers);
  ScenarioEvaluator evaluator(*env_,
                              config_.lanes ? config_.lanes : job_lanes.get());
  evaluator.set_cache_policy(config_.cache_policy);
  if (config_.cache_policy == cache::CachePolicy::kShared) {
    evaluator.set_cache_mem_bytes(config_.cache_mem_bytes);
    if (config_.shared_cache) evaluator.set_shared_cache(config_.shared_cache);
  }
  const auto& space = firelib::ScenarioSpace::table1();
  const ObservationDigest& digest = observations_.digest();
  const auto& lines = digest.lines;

  // Calibrate on [t_{n-1}, t_n], predict t_{n+1}; n runs to steps()-1.
  for (int n = 1; n + 1 <= digest.steps(); ++n) {
    // One clock source for report timings AND trace spans: each stage is a
    // SpanTimer, so the JSONL/CSV *_seconds fields and the trace timeline
    // come from the same start/stop points.
    obs::SpanTimer step_timer("pipeline.step");
    const std::size_t cache_hits_before = evaluator.cache_hits();
    const std::size_t cache_misses_before = evaluator.cache_misses();
    const std::size_t cache_evictions_before = evaluator.cache_evictions();
    const std::size_t cache_rejected_before =
        evaluator.cache_insertions_rejected();
    const std::size_t dedup_before = evaluator.batch_dedup_hits();
    std::size_t cache_peak_entries = 0;
    std::size_t cache_peak_bytes = 0;
    // Sampled after every simulating stage: the step cache is wiped by a
    // burned-cell batch's context change (the PS's) mid-step, so only a
    // per-stage max sees the OS working set.
    const auto sample_cache = [&] {
      cache_peak_entries =
          std::max(cache_peak_entries, evaluator.cache_entries());
      cache_peak_bytes = std::max(cache_peak_bytes, evaluator.cache_bytes());
    };
    const auto un = static_cast<std::size_t>(n);
    const double t_now = digest.times[un];
    const double t_next = digest.times[un + 1];

    // --- Optimization Stage. ---
    obs::SpanTimer os_timer("pipeline.os");
    evaluator.set_step(observations_, n);
    auto batch = evaluator.batch_evaluator();
    OptimizationOutcome outcome =
        optimizer.optimize(firelib::kParamCount, batch, config_.stop, rng);
    ESSNS_REQUIRE(!outcome.solutions.empty(),
                  "optimizer returned an empty solution set");
    sample_cache();
    const double os_seconds = os_timer.stop();

    // Cap the solution set (highest fitness first) so SS cost is bounded.
    std::sort(outcome.solutions.begin(), outcome.solutions.end(),
              [](const auto& a, const auto& b) { return a.fitness > b.fitness; });
    if (outcome.solutions.size() > config_.max_solution_maps)
      outcome.solutions.resize(config_.max_solution_maps);

    // --- Statistical Stage (calibration side): burned cells over
    // [t_{n-1}, t_n], counted from the OS's own fitness simulations. ---
    obs::SpanTimer ss_timer("pipeline.ss");
    std::vector<firelib::Scenario> scenarios;
    scenarios.reserve(outcome.solutions.size());
    for (const auto& ind : outcome.solutions)
      scenarios.push_back(space.decode(ind.genome));
    const Grid<double> probability_now =
        evaluator.burn_probability(scenarios, observations_, n - 1, t_now);
    sample_cache();
    const double ss_seconds = ss_timer.stop();

    // --- Calibration Stage: S_Kign against RFL_n, excluding what RFL_{n-1}
    // had burned. ---
    obs::SpanTimer cs_timer("pipeline.cs");
    const KignSearchResult kign =
        search_kign(probability_now, lines[un].scoring.real,
                    lines[un - 1].scoring.real, config_.kign_candidates);
    const double cs_seconds = cs_timer.stop();

    // --- Prediction Stage for t_{n+1} using Kign_n: a new interval, so
    // every map is simulated, batched over the shared worker pool. ---
    obs::SpanTimer ps_timer("pipeline.ps");
    last_probability_ =
        evaluator.burn_probability(scenarios, observations_, n, t_next);
    last_prediction_ = apply_kign(last_probability_, kign.kign);
    sample_cache();
    const double ps_seconds = ps_timer.stop();

    // Scoring PFL_{n+1} against RFL_{n+1} is evaluation of the prediction,
    // not part of the PS itself — keep it out of ps_seconds.
    const double quality =
        jaccard(lines[un + 1].scoring.real, lines[un].scoring.real,
                firelib::burned_cells(last_prediction_));

    StepReport report;
    report.step = n + 1;
    report.kign = kign.kign;
    report.calibration_fitness = kign.fitness;
    report.best_os_fitness = outcome.best.evaluated() ? outcome.best.fitness : 0;
    report.prediction_quality = quality;
    report.os_evaluations = outcome.evaluations;
    report.os_generations = outcome.generations;
    report.elapsed_seconds = step_timer.stop();
    report.solution_count = scenarios.size();
    report.os_seconds = os_seconds;
    report.ss_seconds = ss_seconds;
    report.cs_seconds = cs_seconds;
    report.ps_seconds = ps_seconds;
    report.cache_hits = evaluator.cache_hits() - cache_hits_before;
    report.cache_misses = evaluator.cache_misses() - cache_misses_before;
    report.cache_evictions =
        evaluator.cache_evictions() - cache_evictions_before;
    report.cache_insertions_rejected =
        evaluator.cache_insertions_rejected() - cache_rejected_before;
    report.cache_entries = cache_peak_entries;
    report.cache_bytes = cache_peak_bytes;
    report.batch_dedup_hits = evaluator.batch_dedup_hits() - dedup_before;
    if (obs::metrics_enabled()) {
      obs::record_histogram("pipeline.os_seconds", os_seconds);
      obs::record_histogram("pipeline.ss_seconds", ss_seconds);
      obs::record_histogram("pipeline.cs_seconds", cs_seconds);
      obs::record_histogram("pipeline.ps_seconds", ps_seconds);
      obs::record_histogram("pipeline.step_seconds", report.elapsed_seconds);
    }
    result.steps.push_back(report);
  }
  return result;
}

}  // namespace essns::ess
