// EXP-B3 — pipeline-stage benchmarks: micro-benchmarks of the Statistical
// Stage aggregation, the Calibration Stage threshold search and the
// dispatch overhead of the Master/Worker and thread-pool substrates, plus an
// end-to-end per-stage speedup report of the full PredictionPipeline across
// worker counts (written to BENCH_stages_pipeline.json).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>

#include "bench_json.hpp"
#include "ess/calibration.hpp"
#include "ess/fitness.hpp"
#include "ess/pipeline.hpp"
#include "ess/statistical.hpp"
#include "parallel/master_worker.hpp"
#include "parallel/thread_pool.hpp"
#include "synth/ground_truth.hpp"
#include "synth/workloads.hpp"

namespace {

using namespace essns;

std::vector<firelib::IgnitionMap> synthetic_maps(int count, int size,
                                                 Rng& rng) {
  std::vector<firelib::IgnitionMap> maps;
  for (int m = 0; m < count; ++m) {
    firelib::IgnitionMap map(size, size, firelib::kNeverIgnited);
    for (auto& t : map)
      if (rng.bernoulli(0.5)) t = rng.uniform(0.0, 120.0);
    maps.push_back(std::move(map));
  }
  return maps;
}

// The burned-cell records of `maps` at `time_min`, as the sweeps of the
// OS's fitness simulations hand them to the Statistical Stage.
std::vector<ess::BurnedCells> synthetic_records(
    const std::vector<firelib::IgnitionMap>& maps, double time_min) {
  std::vector<ess::BurnedCells> records;
  for (const auto& map : maps)
    records.push_back(firelib::burned_cells(map, time_min));
  return records;
}

Grid<double> aggregate(const std::vector<ess::BurnedCells>& records) {
  std::vector<const ess::BurnedCells*> pointers;
  for (const auto& record : records) pointers.push_back(&record);
  return ess::aggregate_burned(pointers);
}

void BM_StatisticalStageAggregate(benchmark::State& state) {
  Rng rng(1);
  const int size = static_cast<int>(state.range(1));
  const auto records = synthetic_records(
      synthetic_maps(static_cast<int>(state.range(0)), size, rng), 60.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aggregate(records));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StatisticalStageAggregate)
    ->Args({16, 64})
    ->Args({64, 64})
    ->Args({16, 128});

void BM_KignSearch(benchmark::State& state) {
  Rng rng(2);
  const auto maps = synthetic_maps(16, 64, rng);
  const auto probability = aggregate(synthetic_records(maps, 60.0));
  const auto real = firelib::burned_mask(maps.front(), 60.0);
  const Grid<std::uint8_t> preburned(64, 64, 0);
  const int candidates = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ess::search_kign(probability, real, preburned, candidates));
  }
}
BENCHMARK(BM_KignSearch)->Arg(20)->Arg(100);

void BM_Jaccard(benchmark::State& state) {
  Rng rng(3);
  const int size = static_cast<int>(state.range(0));
  Grid<std::uint8_t> a(size, size, 0), b(size, size, 0), pre(size, size, 0);
  for (auto& v : a) v = rng.bernoulli(0.5);
  for (auto& v : b) v = rng.bernoulli(0.5);
  for (auto& v : pre) v = rng.bernoulli(0.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ess::jaccard(a, b, pre));
  }
}
BENCHMARK(BM_Jaccard)->Arg(64)->Arg(256);

// Eq. (3) as the OS scores every simulation: the step's packed target
// against the sweep's burned-cell record.
void BM_JaccardWords(benchmark::State& state) {
  Rng rng(3);
  const int size = static_cast<int>(state.range(0));
  const auto maps = synthetic_maps(2, size, rng);
  const ess::ScoringTarget target =
      ess::make_scoring_target(maps[0], 30.0, 60.0);
  const ess::BurnedCells simulated = firelib::burned_cells(maps[1], 60.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ess::jaccard(target, simulated));
  }
}
BENCHMARK(BM_JaccardWords)->Arg(64)->Arg(256);

void BM_MasterWorkerDispatchOverhead(benchmark::State& state) {
  // Trivial tasks: measures pure scatter/gather cost per item.
  parallel::MasterWorker mw(static_cast<unsigned>(state.range(0)));
  const std::vector<int> tasks(256, 7);
  std::vector<int> results(tasks.size());
  for (auto _ : state) {
    mw.run(tasks.size(),
           [&](unsigned, std::size_t i) { results[i] = tasks[i] + 1; });
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_MasterWorkerDispatchOverhead)->Arg(1)->Arg(2)->Arg(4);

void BM_ThreadPoolParallelFor(benchmark::State& state) {
  parallel::ThreadPool pool(static_cast<unsigned>(state.range(0)));
  std::vector<double> data(4096, 1.0);
  for (auto _ : state) {
    pool.parallel_for(data.size(), [&](std::size_t i) {
      data[i] = data[i] * 1.000001 + 0.5;
    });
    benchmark::DoNotOptimize(data);
  }
}
BENCHMARK(BM_ThreadPoolParallelFor)->Arg(1)->Arg(4);

// --- End-to-end per-stage speedup of the PredictionPipeline. ---
//
// Runs the same fixed-seed prediction across worker counts; since the
// batched SimulationService is bit-deterministic, every run produces
// identical predictions and the wall-clock ratios are pure parallel
// speedup. Stage totals come from the StepReport per-stage timings.

struct PipelineTiming {
  unsigned workers = 1;
  double os_seconds = 0.0;
  double ss_seconds = 0.0;
  double cs_seconds = 0.0;
  double ps_seconds = 0.0;
  double total_seconds = 0.0;
  double mean_quality = 0.0;
};

PipelineTiming run_pipeline_once(unsigned workers) {
  auto workload = essns::synth::make_plains(64);
  essns::Rng truth_rng(42);
  const auto truth = essns::synth::generate_ground_truth(
      workload.environment, workload.truth_config, truth_rng);

  essns::ess::PipelineConfig config;
  config.stop = {10, 1.1};  // fixed generation budget, no early exit
  config.workers = workers;
  essns::core::NsGaConfig ns;
  ns.population_size = 16;
  ns.offspring_count = 16;
  essns::ess::NsGaOptimizer optimizer(ns);
  essns::Rng rng(7);

  essns::ess::PredictionPipeline pipeline(workload.environment, truth, config);
  const auto result = pipeline.run(optimizer, rng);

  PipelineTiming timing;
  timing.workers = workers;
  for (const auto& step : result.steps) {
    timing.os_seconds += step.os_seconds;
    timing.ss_seconds += step.ss_seconds;
    timing.cs_seconds += step.cs_seconds;
    timing.ps_seconds += step.ps_seconds;
    timing.total_seconds += step.elapsed_seconds;
  }
  timing.mean_quality = result.mean_quality();
  return timing;
}

void report_pipeline_stage_speedup(const char* json_path) {
  const unsigned worker_counts[] = {1, 2, 4};
  std::vector<PipelineTiming> timings;
  for (unsigned workers : worker_counts)
    timings.push_back(run_pipeline_once(workers));
  const PipelineTiming& serial = timings.front();

  std::printf("\npipeline per-stage seconds (plains/64, 10 gens/step)\n");
  std::printf("%8s %10s %10s %10s %10s %10s %8s\n", "workers", "OS", "SS",
              "CS", "PS", "total", "speedup");
  for (const auto& t : timings) {
    std::printf("%8u %10.3f %10.3f %10.3f %10.3f %10.3f %7.2fx\n", t.workers,
                t.os_seconds, t.ss_seconds, t.cs_seconds, t.ps_seconds,
                t.total_seconds, serial.total_seconds / t.total_seconds);
  }

  std::FILE* out = std::fopen(json_path, "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"pipeline_stage_speedup\",\n");
  std::fprintf(out, "  \"workload\": \"plains\",\n  \"grid\": 64,\n");
  std::fprintf(out, "  \"runs\": [\n");
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const auto& t = timings[i];
    std::fprintf(
        out,
        "    {\"workers\": %u, \"os_seconds\": %.6f, \"ss_seconds\": %.6f, "
        "\"cs_seconds\": %.6f, \"ps_seconds\": %.6f, \"total_seconds\": %.6f, "
        "\"speedup\": %.4f, \"mean_quality\": %.17g}%s\n",
        t.workers, t.os_seconds, t.ss_seconds, t.cs_seconds, t.ps_seconds,
        t.total_seconds, serial.total_seconds / t.total_seconds,
        t.mean_quality, i + 1 < timings.size() ? "," : "");
  }
  // mean_quality must agree across worker counts (bit-determinism check).
  bool identical = true;
  for (const auto& t : timings)
    if (t.mean_quality != serial.mean_quality) identical = false;
  std::fprintf(out, "  ],\n  \"deterministic_across_workers\": %s\n}\n",
               identical ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s (deterministic_across_workers=%s)\n", json_path,
              identical ? "true" : "false");
}

}  // namespace

int main(int argc, char** argv) {
  // --pipeline_report=off skips the end-to-end sweep (it costs several
  // pipeline runs); listing mode skips it automatically.
  bool pipeline_report = true;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--pipeline_report=off") == 0) {
      pipeline_report = false;
      continue;
    }
    if (std::strcmp(argv[i], "--pipeline_report=on") == 0) continue;
    if (std::strncmp(argv[i], "--benchmark_list_tests", 22) == 0) {
      const char* value = argv[i] + 22;
      if (std::strcmp(value, "=false") != 0 && std::strcmp(value, "=0") != 0)
        pipeline_report = false;
    }
    args.push_back(argv[i]);
  }
  int count = static_cast<int>(args.size());
  const int rc =
      essns::benchmain::run_all(count, args.data(), "BENCH_stages.json");
  if (rc != 0) return rc;
  if (pipeline_report)
    report_pipeline_stage_speedup("BENCH_stages_pipeline.json");
  return 0;
}
