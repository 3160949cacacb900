// PredictionPipeline: the full multi-step predictive process of Fig. 1/2/3.
//
// Per prediction step n (n = 1 .. T-1), with fire lines RFL at instants t_i:
//   OS : search scenarios over [t_{n-1}, t_n]; fitness of a scenario is
//        Eq. (3) between its simulated map at t_n and RFL_n;
//   SS : aggregate the optimizer's solution set over the same interval into
//        the probability-of-ignition matrix. The OS already simulated every
//        member over exactly this interval, so ScenarioEvaluator::
//        burn_probability counts the burned cells its fitness simulations
//        recorded instead of re-simulating them;
//   CS : S_Kign — search the threshold that best reproduces RFL_n (this is
//        where Kign_n is born; Fig. 2 left box);
//   PS : simulate the solution set forward from RFL_n to t_{n+1}, aggregate,
//        threshold with Kign_n -> predicted fire line PFL_{n+1} (Fig. 2
//        right box), scored against RFL_{n+1}. NOTE: unlike the paper —
//        which scopes parallelism to the OS alone ("parallelism will only be
//        implemented in the evaluation of the scenarios", §III-B) — these
//        simulations share the OS Master/Worker lanes, so every stage
//        that simulates scales with config.workers.
//
// "The prediction cannot start at the first time instant" (§II-A): the first
// usable prediction is for t_2, produced while calibrating on [t_0, t_1].
//
// Every stage reads the fire lines through their observation digest
// (ess/observation.hpp); the dense lines are touched only when a batch
// simulates from one.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "cache/scenario_cache.hpp"
#include "ess/calibration.hpp"
#include "ess/evaluator.hpp"
#include "ess/observation.hpp"
#include "ess/optimizer.hpp"
#include "synth/ground_truth.hpp"

namespace essns::ess {

struct PipelineConfig {
  ea::StopCondition stop{30, 0.95};  ///< per-step OS budget
  int kign_candidates = 100;         ///< CS threshold grid resolution
  unsigned workers = 1;              ///< OS-Worker count (1 = serial)
  /// Borrowed lanes to simulate on (an engine slot's pool of `workers`
  /// lanes), kept alive by the lender for the run. Null gives each run()
  /// a job-local pool of `workers` lanes (none when workers == 1). Where
  /// the lanes come from changes only speed, never a result.
  parallel::MasterWorker* lanes = nullptr;
  std::size_t max_solution_maps = 64;  ///< cap on maps aggregated by the SS
  /// Scenario memoization policy (results bit-identical under every
  /// policy): kStep scopes the cache to one prediction step's interval,
  /// kShared keeps entries across steps (and across jobs, when a campaign
  /// installs one shared cache into every pipeline).
  cache::CachePolicy cache_policy = cache::CachePolicy::kStep;
  /// Byte budget when this pipeline has to create its own shared cache
  /// (cache_policy == kShared and shared_cache is null).
  std::size_t cache_mem_bytes = cache::kDefaultCacheBytes;
  /// Campaign-installed cross-job cache; null means the pipeline owns one.
  std::shared_ptr<cache::SharedScenarioCache> shared_cache;
};

/// One predicted step (predicting t_{step} from data through t_{step-1}).
struct StepReport {
  int step = 0;                    ///< index of the predicted instant
  double kign = 0.0;               ///< Key Ignition Value used
  double calibration_fitness = 0;  ///< CS fitness on the calibration step
  double best_os_fitness = 0.0;    ///< best scenario fitness found by the OS
  double prediction_quality = 0;   ///< Eq. (3) of PFL_step vs RFL_step
  std::size_t os_evaluations = 0;
  int os_generations = 0;
  double elapsed_seconds = 0.0;
  std::size_t solution_count = 0;  ///< maps aggregated in the SS

  // Per-stage wall-clock breakdown of elapsed_seconds (the campaign JSONL
  // and CSV report them; the pipeline.*_seconds histograms record them).
  double os_seconds = 0.0;  ///< Optimization Stage (search + fitness batches)
  double ss_seconds = 0.0;  ///< Statistical Stage (aggregation of the OS's burned-cell records)
  double cs_seconds = 0.0;  ///< Calibration Stage (S_Kign threshold search)
  double ps_seconds = 0.0;  ///< Prediction Stage (forward batch + threshold)

  // Scenario-cache activity over the step (all stages that simulate).
  // Deterministic across worker counts under the step policy; hits are
  // simulations avoided. Evictions/rejections are per-step deltas.
  // entries/bytes are the step's PEAK, sampled at every stage boundary —
  // under the step policy a PS batch's context change wipes
  // the cache mid-step, so an end-of-step snapshot would hide the OS working set;
  // under the shared policy they reflect the whole (possibly cross-job)
  // cache as this pipeline saw it.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t cache_evictions = 0;
  std::size_t cache_insertions_rejected = 0;
  std::size_t cache_entries = 0;
  std::size_t cache_bytes = 0;
  /// In-batch duplicate scenarios collapsed before reaching the sweep
  /// engine (a subset of cache_hits; per-step delta, backend-independent).
  std::size_t batch_dedup_hits = 0;
};

struct PipelineResult {
  std::string optimizer_name;
  std::vector<StepReport> steps;

  double mean_quality() const;
  double total_seconds() const;
  std::size_t total_evaluations() const;
  std::size_t total_cache_hits() const;
  std::size_t total_cache_misses() const;
  std::size_t total_cache_evictions() const;
  std::size_t total_cache_insertions_rejected() const;
  std::size_t total_batch_dedup_hits() const;
  /// Peak cache footprint seen by this pipeline (max of the per-stage
  /// samples over all steps; under the shared policy this is the whole —
  /// possibly cross-job — cache, so do not sum it across jobs).
  std::size_t max_cache_bytes() const;
  /// Hits over hits + misses; 0 when nothing went through the cache.
  double cache_hit_rate() const;
};

class PredictionPipeline {
 public:
  /// Over a ground truth the caller keeps alive; its digest is built here,
  /// with fingerprints only under the shared cache policy.
  PredictionPipeline(const firelib::FireEnvironment& env,
                     const synth::GroundTruth& truth, PipelineConfig config);
  /// Over observations of the fire on `env` (fingerprinted when the policy
  /// is kShared).
  PredictionPipeline(const firelib::FireEnvironment& env,
                     Observations observations, PipelineConfig config);

  /// Run the predictive process with `optimizer` as the OS strategy, from
  /// calibration step `first_step` (predicting t_{first_step+1}) to the
  /// last one; the result holds the reports of the steps run. A step reads
  /// nothing of earlier steps but `rng`, so running steps n.. from the
  /// stream a run of steps 1..n-1 left behind reproduces that run's later
  /// steps bit for bit — how an extended job resumes (run_prediction_job).
  PipelineResult run(Optimizer& optimizer, Rng& rng, int first_step = 1);

  /// The probability matrix and predicted fire line of the last step run
  /// (for examples that want to render the output).
  const Grid<double>& last_probability() const { return last_probability_; }
  const Grid<std::uint8_t>& last_prediction() const { return last_prediction_; }

 private:
  const firelib::FireEnvironment* env_;
  Observations observations_;
  PipelineConfig config_;
  Grid<double> last_probability_;
  Grid<std::uint8_t> last_prediction_;
};

}  // namespace essns::ess
