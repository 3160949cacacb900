// EXP-B5 — simulation hot-path benchmark: the numbers behind this repo's
// kernel-level speedups, tracked in CI on every builder. Measures, single
// threaded, on the paper's uniform-topography workload:
//
//   sweep        cells/sec of the Dijkstra growth sweep, fast (dial queue,
//                precomputed travel-time tables) vs the test-side reference
//                propagator (binary heap, behavior + trig per pop);
//   dem sweep    the same on the hills DEM workload at 64 and 96 cells:
//                continuation sweeps seeded from a ground-truth fire line
//                (the pipeline's shape), fast (spread base once per fuel
//                model, terrain trig once per environment) vs reference;
//                popped cells/sec, the firelib.cells_per_s of the trace;
//   fitness      Eq. (3) evaluations/sec through SimulationService
//                fitness_batch — the OS hot loop — new kernels (fast sweep +
//                word-wise Eq. (3) on the sweep's burned cells + scenario
//                cache) vs the reference propagator (no cache) scored by
//                ess::jaccard on its packed burned cells, on a
//                duplicate-heavy batch shaped like GA populations;
//                reported twice: cache on (the shipping configuration) and
//                cache off (isolating the pure kernel speedup);
//   novelty      scores/sec of evaluate_novelty (sorted 1-D window) vs the
//                test-side generic k-NN oracle (tests/core/novelty_oracle.hpp);
//   cache        hit-rate of the scenario cache on the duplicate-heavy batch.
//
// Every compared pair is also checked for bit-identical results before
// timing is reported. Writes BENCH_hotpath.json; exits nonzero when an
// equivalence check fails. Plain main on purpose (no Google Benchmark) so
// the target always builds.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_json.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/novelty.hpp"
#include "core/novelty_oracle.hpp"
#include "ess/fitness.hpp"
#include "ess/simulation_service.hpp"
#include "firelib/propagator.hpp"
#include "firelib/reference_propagator.hpp"
#include "synth/ground_truth.hpp"
#include "synth/workloads.hpp"

namespace {

using namespace essns;

struct KernelTiming {
  double reference_seconds = 0.0;
  double fast_seconds = 0.0;
  double speedup() const {
    return fast_seconds > 0.0 ? reference_seconds / fast_seconds : 0.0;
  }
};

// Duplicate-heavy scenario batch: `unique` distinct scenarios, each repeated
// so the batch has GA-like clone pressure (crossover copies + elitist
// re-survivors re-entering fitness evaluation across generations).
std::vector<firelib::Scenario> duplicate_heavy_batch(std::size_t unique,
                                                     std::size_t total,
                                                     Rng& rng) {
  const auto& space = firelib::ScenarioSpace::table1();
  std::vector<firelib::Scenario> pool;
  for (std::size_t i = 0; i < unique; ++i) pool.push_back(space.sample(rng));
  std::vector<firelib::Scenario> batch;
  for (std::size_t i = 0; i < total; ++i)
    batch.push_back(pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(unique) - 1))]);
  return batch;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  // Bench-wide metrics registry: the scrape lands in the JSON below.
  obs::MetricsRegistry metrics;
  obs::install_metrics_registry(&metrics);

  const int grid = quick ? 48 : 64;
  const int sweep_rounds = quick ? 40 : 120;
  const std::size_t unique_scenarios = quick ? 24 : 48;
  const std::size_t batch_size = quick ? 96 : 192;
  const int fitness_rounds = quick ? 3 : 6;
  const std::size_t novelty_pop = quick ? 200 : 400;
  const std::size_t novelty_ref = quick ? 600 : 1200;
  const int novelty_rounds = quick ? 20 : 50;

  const synth::Workload workload = synth::make_plains(grid);
  Rng truth_rng(5);
  const synth::GroundTruth truth = synth::generate_ground_truth(
      workload.environment, workload.truth_config, truth_rng);
  const firelib::IgnitionMap& start = truth.fire_lines[0];
  ess::Observations observations(truth, false);
  const ess::ScoringTarget& scoring = observations.digest().lines[1].scoring;
  const double horizon = truth.step_minutes;

  Rng rng(2022);
  const std::vector<firelib::Scenario> batch =
      duplicate_heavy_batch(unique_scenarios, batch_size, rng);

  std::printf("hot-path benchmark: %dx%d uniform grid (%s)\n", grid, grid,
              quick ? "quick" : "full");
  bool all_identical = true;

  // --- Sweep: fast vs reference Dijkstra inner loop. -----------------------
  const firelib::FireSpreadModel spread_model;
  firelib::FirePropagator fast_propagator(spread_model);
  // The baseline is the pre-optimization sweep: per-pop behavior + trig on
  // a binary heap.
  const firelib::oracle::ReferencePropagator reference_propagator(
      spread_model);
  firelib::PropagationWorkspace fast_ws;

  KernelTiming sweep;
  std::size_t sweep_cells = 0;
  {
    // Warm both paths once, checking equivalence per scenario.
    for (std::size_t i = 0; i < unique_scenarios; ++i) {
      const auto& got = fast_propagator.propagate(
          workload.environment, batch[i], start, horizon, fast_ws);
      if (!(got == reference_propagator.propagate(workload.environment,
                                                  batch[i], start, horizon)))
        all_identical = false;
    }
    Stopwatch watch;
    for (int round = 0; round < sweep_rounds; ++round)
      for (std::size_t i = 0; i < unique_scenarios; ++i) {
        fast_propagator.propagate(workload.environment, batch[i], start,
                                  horizon, fast_ws);
        sweep_cells += fast_ws.last_map().size();
      }
    sweep.fast_seconds = watch.elapsed_seconds();
    watch.reset();
    for (int round = 0; round < sweep_rounds; ++round)
      for (std::size_t i = 0; i < unique_scenarios; ++i)
        reference_propagator.propagate(workload.environment, batch[i], start,
                                       horizon);
    sweep.reference_seconds = watch.elapsed_seconds();
  }
  const double sweep_cells_per_sec =
      sweep.fast_seconds > 0.0
          ? static_cast<double>(sweep_cells) / sweep.fast_seconds
          : 0.0;
  std::printf("  sweep    %8.3fs ref  %8.3fs fast  %5.2fx  (%.3g cells/sec)\n",
              sweep.reference_seconds, sweep.fast_seconds, sweep.speedup(),
              sweep_cells_per_sec);

  // --- DEM sweep: fast vs reference on hills terrain. ----------------------
  struct DemTiming {
    int grid = 0;
    KernelTiming timing;
    std::uint64_t popped = 0;  // cells popped by one timed pass of each path
  };
  const auto popped_per_sec = [](const DemTiming& dem, double seconds) {
    return seconds > 0.0 ? static_cast<double>(dem.popped) / seconds : 0.0;
  };
  std::vector<DemTiming> dem_sweeps;
  {
    const std::size_t dem_scenarios = quick ? 12 : 24;
    const int dem_rounds = quick ? 4 : 24;
    obs::Counter& popped_counter = metrics.counter("sweep.cells_popped");
    for (const int dem_grid : {64, 96}) {
      const synth::Workload hills = synth::make_hills(dem_grid);
      Rng hills_rng(5);
      const synth::GroundTruth hills_truth = synth::generate_ground_truth(
          hills.environment, hills.truth_config, hills_rng);
      const firelib::IgnitionMap& rfl = hills_truth.fire_lines[1];
      const double dem_horizon = hills_truth.time_of(2);
      DemTiming dem;
      dem.grid = dem_grid;
      for (std::size_t i = 0; i < dem_scenarios; ++i) {
        const auto& got = fast_propagator.propagate(
            hills.environment, batch[i], rfl, dem_horizon, fast_ws);
        if (!(got == reference_propagator.propagate(hills.environment,
                                                    batch[i], rfl,
                                                    dem_horizon)))
          all_identical = false;
      }
      const std::uint64_t popped_before = popped_counter.value();
      Stopwatch watch;
      for (int round = 0; round < dem_rounds; ++round)
        for (std::size_t i = 0; i < dem_scenarios; ++i)
          fast_propagator.propagate(hills.environment, batch[i], rfl,
                                    dem_horizon, fast_ws);
      dem.timing.fast_seconds = watch.elapsed_seconds();
      dem.popped = popped_counter.value() - popped_before;
      watch.reset();
      for (int round = 0; round < dem_rounds; ++round)
        for (std::size_t i = 0; i < dem_scenarios; ++i)
          reference_propagator.propagate(hills.environment, batch[i], rfl,
                                         dem_horizon);
      dem.timing.reference_seconds = watch.elapsed_seconds();
      std::printf(
          "  dem%-3d   %8.3fs ref  %8.3fs fast  %5.2fx  (%.3g popped "
          "cells/sec fast, %.3g ref)\n",
          dem_grid, dem.timing.reference_seconds, dem.timing.fast_seconds,
          dem.timing.speedup(),
          popped_per_sec(dem, dem.timing.fast_seconds),
          popped_per_sec(dem, dem.timing.reference_seconds));
      dem_sweeps.push_back(dem);
    }
  }

  // --- Fitness batch: new kernels + cache vs pre-PR kernels. ---------------
  KernelTiming fitness;
  KernelTiming fitness_kernel;  // cache off: pure sweep + jaccard speedup
  double cache_hit_rate = 0.0;
  {
    ess::SimulationService fast_service(workload.environment);
    ess::SimulationService nocache_service(workload.environment);
    nocache_service.set_cache_policy(cache::CachePolicy::kOff);
    // The baseline: the reference propagator above, every request
    // simulated, packed and scored.
    const auto reference_fitness_batch = [&] {
      std::vector<double> fitness_values;
      fitness_values.reserve(batch.size());
      for (const firelib::Scenario& scenario : batch) {
        const firelib::IgnitionMap map = reference_propagator.propagate(
            workload.environment, scenario, start, horizon);
        fitness_values.push_back(
            ess::jaccard(scoring, firelib::burned_cells(map, horizon)));
      }
      return fitness_values;
    };

    const auto want = reference_fitness_batch();
    const auto got = fast_service.fitness_batch(batch, observations, 1);
    const auto got_nocache =
        nocache_service.fitness_batch(batch, observations, 1);
    if (got != want || got_nocache != want) all_identical = false;

    Stopwatch watch;
    for (int round = 0; round < fitness_rounds; ++round)
      fast_service.fitness_batch(batch, observations, 1);
    fitness.fast_seconds = watch.elapsed_seconds();
    watch.reset();
    for (int round = 0; round < fitness_rounds; ++round)
      nocache_service.fitness_batch(batch, observations, 1);
    fitness_kernel.fast_seconds = watch.elapsed_seconds();
    watch.reset();
    for (int round = 0; round < fitness_rounds; ++round)
      reference_fitness_batch();
    fitness.reference_seconds = watch.elapsed_seconds();
    fitness_kernel.reference_seconds = fitness.reference_seconds;

    const std::size_t hits = fast_service.cache_hits();
    const std::size_t misses = fast_service.cache_misses();
    cache_hit_rate = hits + misses > 0
                         ? static_cast<double>(hits) /
                               static_cast<double>(hits + misses)
                         : 0.0;
  }
  const double evals_per_sec =
      fitness.fast_seconds > 0.0
          ? static_cast<double>(batch.size()) *
                static_cast<double>(fitness_rounds) / fitness.fast_seconds
          : 0.0;
  std::printf(
      "  fitness  %8.3fs ref  %8.3fs fast  %5.2fx  (%.1f evals/sec, cache "
      "hit-rate %.3f; kernels alone %5.2fx)\n",
      fitness.reference_seconds, fitness.fast_seconds, fitness.speedup(),
      evals_per_sec, cache_hit_rate, fitness_kernel.speedup());

  // --- Novelty: sorted 1-D window vs the generic k-NN oracle. -------------
  KernelTiming novelty;
  std::size_t novelty_scored = 0;
  {
    std::vector<ea::Individual> pop;
    for (std::size_t i = 0; i < novelty_pop; ++i) {
      ea::Individual ind;
      ind.genome = {rng.uniform(0.0, 1.0)};
      ind.fitness = rng.uniform(0.0, 1.0);
      pop.push_back(std::move(ind));
    }
    std::vector<ea::Individual> reference = pop;
    for (std::size_t i = 0; i < novelty_ref; ++i) {
      ea::Individual ind;
      ind.genome = {rng.uniform(0.0, 1.0)};
      ind.fitness = rng.uniform(0.0, 1.0);
      reference.push_back(std::move(ind));
    }
    std::vector<ea::Individual> fast_pop = pop;
    std::vector<ea::Individual> slow_pop = pop;
    core::evaluate_novelty(fast_pop, reference, 10);
    core::oracle::evaluate_novelty(slow_pop, reference, 10);
    for (std::size_t i = 0; i < pop.size(); ++i)
      if (fast_pop[i].novelty != slow_pop[i].novelty) all_identical = false;

    Stopwatch watch;
    for (int round = 0; round < novelty_rounds; ++round) {
      core::evaluate_novelty(fast_pop, reference, 10);
      novelty_scored += fast_pop.size();
    }
    novelty.fast_seconds = watch.elapsed_seconds();
    watch.reset();
    for (int round = 0; round < novelty_rounds; ++round)
      core::oracle::evaluate_novelty(slow_pop, reference, 10);
    novelty.reference_seconds = watch.elapsed_seconds();
  }
  const double scores_per_sec =
      novelty.fast_seconds > 0.0
          ? static_cast<double>(novelty_scored) / novelty.fast_seconds
          : 0.0;
  std::printf("  novelty  %8.3fs ref  %8.3fs fast  %5.2fx  (%.3g scores/sec)\n",
              novelty.reference_seconds, novelty.fast_seconds,
              novelty.speedup(), scores_per_sec);
  std::printf("  bit-identical across all kernel pairs: %s\n",
              all_identical ? "true" : "false");

  const char* json_path = "BENCH_hotpath.json";
  std::FILE* out = std::fopen(json_path, "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"hotpath\",\n");
  std::fprintf(out, "  \"hardware\": {%s},\n",
               benchmain::hardware_json_fields().c_str());
  std::fprintf(out, "  %s,\n", benchmain::metrics_json_field().c_str());
  std::fprintf(out, "  \"grid\": %d,\n  \"quick\": %s,\n", grid,
               quick ? "true" : "false");
  std::fprintf(out,
               "  \"sweep\": {\"reference_seconds\": %.6f, \"fast_seconds\": "
               "%.6f, \"speedup\": %.4f, \"cells_per_second\": %.1f},\n",
               sweep.reference_seconds, sweep.fast_seconds, sweep.speedup(),
               sweep_cells_per_sec);
  std::fprintf(out, "  \"dem_sweep\": [");
  for (std::size_t i = 0; i < dem_sweeps.size(); ++i) {
    const DemTiming& dem = dem_sweeps[i];
    std::fprintf(out,
                 "%s\n    {\"grid\": %d, \"reference_seconds\": %.6f, "
                 "\"fast_seconds\": %.6f, \"speedup\": %.4f, "
                 "\"cells_popped\": %llu, \"cells_per_second\": %.1f, "
                 "\"reference_cells_per_second\": %.1f}",
                 i == 0 ? "" : ",", dem.grid, dem.timing.reference_seconds,
                 dem.timing.fast_seconds, dem.timing.speedup(),
                 static_cast<unsigned long long>(dem.popped),
                 popped_per_sec(dem, dem.timing.fast_seconds),
                 popped_per_sec(dem, dem.timing.reference_seconds));
  }
  std::fprintf(out, "\n  ],\n");
  std::fprintf(
      out,
      "  \"fitness_batch\": {\"reference_seconds\": %.6f, \"fast_seconds\": "
      "%.6f, \"speedup\": %.4f, \"kernel_only_seconds\": %.6f, "
      "\"kernel_only_speedup\": %.4f, \"evals_per_second\": %.1f, "
      "\"batch_size\": %zu, \"unique_scenarios\": %zu, "
      "\"cache_hit_rate\": %.4f},\n",
      fitness.reference_seconds, fitness.fast_seconds, fitness.speedup(),
      fitness_kernel.fast_seconds, fitness_kernel.speedup(), evals_per_sec,
      batch.size(), unique_scenarios, cache_hit_rate);
  std::fprintf(out,
               "  \"novelty\": {\"reference_seconds\": %.6f, \"fast_seconds\": "
               "%.6f, \"speedup\": %.4f, \"scores_per_second\": %.1f},\n",
               novelty.reference_seconds, novelty.fast_seconds,
               novelty.speedup(), scores_per_sec);
  std::fprintf(out, "  \"bit_identical\": %s\n}\n",
               all_identical ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", json_path);
  return all_identical ? 0 : 1;
}
