// EXP-S — response time and speedup of the Master/Worker Optimization Stage
// (the "parallelism only in the evaluation of the scenarios" design, §III-B).
//
// A fixed batch of scenario evaluations is scattered over 1..8 workers and
// the wall-clock time, speedup vs 1 worker, and parallel efficiency are
// reported. The batch scores the last prediction step of a 256x256 hills
// DEM fire: a large front on the per-cell wind/slope path, so one serial
// pass takes a few hundred milliseconds and dispatch overhead does not
// drown the speedup column. The scenario cache is off, so every repeat
// simulates the whole batch (with it on, every repeat after the first would
// time cache hits).
// Exits 1 when a parallel result differs from the serial one. NOTE
// (EXPERIMENTS.md): wall-clock speedup saturates at the host's core count —
// on a single-core container the table demonstrates correctness of the
// decomposition and its overhead, not scaling.
#include <cstdio>

#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "ess/evaluator.hpp"
#include "parallel/thread_pool.hpp"
#include "synth/workloads.hpp"

int main() {
  using namespace essns;

  constexpr int kGridSize = 256;
  constexpr int kBatch = 200;
  constexpr int kRepeats = 3;

  synth::Workload workload = synth::make_hills(kGridSize);
  Rng truth_rng(11);
  const synth::GroundTruth truth = synth::generate_ground_truth(
      workload.environment, workload.truth_config, truth_rng);

  // One fixed batch of genomes evaluated by every configuration.
  const auto& space = firelib::ScenarioSpace::table1();
  Rng genome_rng(13);
  std::vector<ea::Genome> batch;
  for (int i = 0; i < kBatch; ++i)
    batch.push_back(space.encode(space.sample(genome_rng)));

  ess::Observations observations(truth, false);

  TextTable table("EXP-S Master/Worker response time (" +
                  std::to_string(kBatch) + " scenario evaluations of step " +
                  std::to_string(truth.steps()) + ", " +
                  std::to_string(kGridSize) + "x" +
                  std::to_string(kGridSize) + " hills map, best of " +
                  std::to_string(kRepeats) + ")");
  table.set_header(
      {"Workers", "time[ms]", "speedup", "efficiency", "evals/s"});

  double baseline_ms = 0.0;
  std::vector<double> reference;
  for (unsigned workers : {1u, 2u, 4u, 8u}) {
    const auto lanes = parallel::make_job_lanes(workers);
    ess::ScenarioEvaluator evaluator(workload.environment, lanes.get());
    evaluator.set_cache_policy(cache::CachePolicy::kOff);
    evaluator.set_step(observations, truth.steps());
    auto evaluate = evaluator.batch_evaluator();

    double best_ms = 1e18;
    std::vector<double> last;
    for (int rep = 0; rep < kRepeats; ++rep) {
      Stopwatch watch;
      last = evaluate(batch);
      best_ms = std::min(best_ms, watch.elapsed_ms());
    }
    if (workers == 1) {
      baseline_ms = best_ms;
      reference = last;
    } else {
      // Correctness: parallel result identical to serial.
      for (std::size_t i = 0; i < last.size(); ++i) {
        if (last[i] != reference[i]) {
          std::fprintf(stderr, "FATAL: result mismatch at %zu\n", i);
          return 1;
        }
      }
    }
    const double speedup = baseline_ms / best_ms;
    table.add_row({std::to_string(workers), TextTable::num(best_ms, 1),
                   TextTable::num(speedup, 2),
                   TextTable::num(speedup / workers, 2),
                   TextTable::num(kBatch / (best_ms / 1e3), 0)});
  }
  table.print();
  std::printf("\nhardware concurrency of this host: %u\n",
              parallel::ThreadPool::default_thread_count());
  return 0;
}
