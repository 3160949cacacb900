// EXP-B6 — sweep benchmark: queue discipline (binary heap vs bucketed dial)
// and relax kernel (scalar oracle vs AVX2) in the FirePropagator Dijkstra
// sweep, single threaded, on the grid shapes that exercise both fast paths:
//
//   uniform   plains (travel-time-table inner loop, scenario-uniform fuels);
//   dem       hills (per-cell wind/slope composition + fuel mosaic).
//
// Every timed pair is first checked for bit-identical ignition maps —
// heap-vs-dial AND scalar-vs-simd — and the whole default campaign catalog
// is swept both ways as well; any divergence makes the binary exit nonzero,
// which is how CI enforces the zero-divergence acceptance criterion.
//
// A third arm times the batched sweep backend (firelib::BatchSweep) against
// the per-scenario scalar loop at batch sizes 8 and 64 on uniform terrain —
// the regime the backend targets — with the same per-scenario divergence
// check folded into the exit code.
//
// Flags:
//   --quick        smaller grids/rounds (CI Debug job)
//   --simd MODE    auto | avx2 | scalar — the kernel for the simd arms
//                  (default auto). Forcing avx2 on a host without it skips
//                  the run with a notice (exit 0, "skipped": true in JSON)
//                  instead of silently benchmarking scalar-vs-scalar.
//   --out PATH     JSON output path (default BENCH_sweep.json)
//
// The JSON carries hardware provenance (cores, NUMA nodes, detected ISA)
// and the active settings, so numbers are never compared across hosts
// blind. Plain main on purpose (no Google Benchmark) so the target always
// builds.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/stopwatch.hpp"
#include "firelib/batch_sweep.hpp"
#include "firelib/propagator.hpp"
#include "synth/catalog.hpp"
#include "synth/ground_truth.hpp"
#include "synth/workloads.hpp"

namespace {

using namespace essns;

struct GridResult {
  std::string name;
  int rows = 0;
  int cols = 0;
  double heap_seconds = 0.0;    // dial-arm kernel, heap queue
  double dial_seconds = 0.0;    // dial-arm kernel, dial queue
  double scalar_seconds = 0.0;  // scalar kernel, dial queue
  std::size_t cells_swept = 0;
  double speedup() const {
    return dial_seconds > 0.0 ? heap_seconds / dial_seconds : 0.0;
  }
  double simd_speedup() const {
    return dial_seconds > 0.0 ? scalar_seconds / dial_seconds : 0.0;
  }
  double cells_per_second() const {
    return dial_seconds > 0.0
               ? static_cast<double>(cells_swept) / dial_seconds
               : 0.0;
  }
};

/// Time heap-vs-dial and scalar-vs-simd on one workload; counts map
/// divergences into the respective counters.
GridResult bench_grid(const std::string& name, const synth::Workload& workload,
                      std::size_t scenarios, int rounds, simd::Mode mode,
                      std::size_t& queue_divergences,
                      std::size_t& simd_divergences) {
  const firelib::FireEnvironment& env = workload.environment;
  Rng truth_rng(5);
  const synth::GroundTruth truth = synth::generate_ground_truth(
      env, workload.truth_config, truth_rng);
  const firelib::IgnitionMap& start = truth.fire_lines[0];
  const double horizon = truth.step_minutes;

  const auto& space = firelib::ScenarioSpace::table1();
  Rng rng(2022);
  std::vector<firelib::Scenario> batch;
  for (std::size_t i = 0; i < scenarios; ++i) batch.push_back(space.sample(rng));

  const firelib::FireSpreadModel model;
  firelib::FirePropagator heap(model);
  heap.set_sweep_queue(firelib::SweepQueue::kHeap);
  heap.set_simd_mode(mode);
  firelib::FirePropagator dial(model);
  dial.set_sweep_queue(firelib::SweepQueue::kDial);
  dial.set_simd_mode(mode);
  firelib::FirePropagator scalar(model);
  scalar.set_sweep_queue(firelib::SweepQueue::kDial);
  scalar.set_simd_mode(simd::Mode::kScalar);
  firelib::PropagationWorkspace heap_ws, dial_ws, scalar_ws;

  GridResult result;
  result.name = name;
  result.rows = env.rows();
  result.cols = env.cols();

  // Warm all three arms once, checking equivalence per scenario: the dial
  // arm against the heap arm (queue discipline) and against the scalar
  // oracle (relax kernel).
  for (const firelib::Scenario& scenario : batch) {
    const auto& from_dial = dial.propagate(env, scenario, start, horizon, dial_ws);
    const auto& from_heap = heap.propagate(env, scenario, start, horizon, heap_ws);
    if (!(from_dial == from_heap)) ++queue_divergences;
    const auto& from_scalar =
        scalar.propagate(env, scenario, start, horizon, scalar_ws);
    if (!(from_dial == from_scalar)) ++simd_divergences;
  }

  Stopwatch watch;
  for (int round = 0; round < rounds; ++round)
    for (const firelib::Scenario& scenario : batch)
      dial.propagate(env, scenario, start, horizon, dial_ws);
  result.dial_seconds = watch.elapsed_seconds();
  watch.reset();
  for (int round = 0; round < rounds; ++round)
    for (const firelib::Scenario& scenario : batch)
      heap.propagate(env, scenario, start, horizon, heap_ws);
  result.heap_seconds = watch.elapsed_seconds();
  watch.reset();
  for (int round = 0; round < rounds; ++round)
    for (const firelib::Scenario& scenario : batch)
      scalar.propagate(env, scenario, start, horizon, scalar_ws);
  result.scalar_seconds = watch.elapsed_seconds();
  // Map-output throughput (cells of ignition map produced per second), kept
  // out of the timed loops so the measurements stay symmetric.
  result.cells_swept = static_cast<std::size_t>(env.rows()) *
                       static_cast<std::size_t>(env.cols()) * batch.size() *
                       static_cast<std::size_t>(rounds);
  return result;
}

struct BatchedResult {
  std::string name;
  std::size_t batch = 0;
  double loop_seconds = 0.0;     // per-scenario scalar-backend loop
  double batched_seconds = 0.0;  // one BatchSweep launch per round
  std::size_t table_groups = 0;  // travel tables built once per group
  double speedup() const {
    return batched_seconds > 0.0 ? loop_seconds / batched_seconds : 0.0;
  }
};

/// Time one BatchSweep launch against the per-scenario propagator loop on
/// one workload; counts per-scenario map divergences into the counter.
BatchedResult bench_batched(const std::string& name,
                            const synth::Workload& workload,
                            std::size_t batch_size, int rounds,
                            simd::Mode mode,
                            std::size_t& batched_divergences) {
  const firelib::FireEnvironment& env = workload.environment;
  Rng truth_rng(5);
  const synth::GroundTruth truth = synth::generate_ground_truth(
      env, workload.truth_config, truth_rng);
  const firelib::IgnitionMap& start = truth.fire_lines[0];
  const double horizon = truth.step_minutes;

  const auto& space = firelib::ScenarioSpace::table1();
  Rng rng(2022);
  std::vector<firelib::Scenario> batch;
  for (std::size_t i = 0; i < batch_size; ++i)
    batch.push_back(space.sample(rng));
  std::vector<const firelib::Scenario*> pointers;
  for (const firelib::Scenario& scenario : batch)
    pointers.push_back(&scenario);

  const firelib::FireSpreadModel model;
  firelib::FirePropagator scalar(model);
  scalar.set_simd_mode(mode);
  firelib::BatchSweep batched(model);
  batched.set_simd_mode(mode);
  firelib::PropagationWorkspace scalar_ws;

  // Warm both arms once, checking per-scenario equivalence.
  const std::vector<firelib::IgnitionMap> maps =
      batched.sweep(env, pointers, start, horizon);
  for (std::size_t i = 0; i < batch.size(); ++i)
    if (!(maps[i] ==
          scalar.propagate(env, batch[i], start, horizon, scalar_ws)))
      ++batched_divergences;

  BatchedResult result;
  result.name = name;
  result.batch = batch_size;
  result.table_groups = batched.last_table_groups();

  Stopwatch watch;
  for (int round = 0; round < rounds; ++round)
    for (const firelib::Scenario& scenario : batch)
      scalar.propagate(env, scenario, start, horizon, scalar_ws);
  result.loop_seconds = watch.elapsed_seconds();
  watch.reset();
  for (int round = 0; round < rounds; ++round)
    batched.sweep(env, pointers, start, horizon);
  result.batched_seconds = watch.elapsed_seconds();
  return result;
}

/// Heap-vs-dial and scalar-vs-simd over every workload of the default
/// campaign catalog (the acceptance sweep): point ignitions, a handful of
/// scenarios each.
std::size_t check_default_catalog(simd::Mode mode,
                                  std::size_t& queue_divergences,
                                  std::size_t& simd_divergences) {
  const std::vector<synth::Workload> catalog =
      synth::generate_catalog(synth::CatalogSpec{});
  const firelib::FireSpreadModel model;
  firelib::FirePropagator heap(model);
  heap.set_sweep_queue(firelib::SweepQueue::kHeap);
  heap.set_simd_mode(mode);
  firelib::FirePropagator dial(model);
  dial.set_sweep_queue(firelib::SweepQueue::kDial);
  dial.set_simd_mode(mode);
  firelib::FirePropagator scalar(model);
  scalar.set_sweep_queue(firelib::SweepQueue::kDial);
  scalar.set_simd_mode(simd::Mode::kScalar);
  firelib::PropagationWorkspace heap_ws, dial_ws, scalar_ws;

  const auto& space = firelib::ScenarioSpace::table1();
  Rng rng(7);
  for (const synth::Workload& workload : catalog) {
    const firelib::FireEnvironment& env = workload.environment;
    const std::vector<CellIndex> ignition{{env.rows() / 2, env.cols() / 2}};
    for (int trial = 0; trial < 3; ++trial) {
      const firelib::Scenario scenario = space.sample(rng);
      const double horizon = rng.uniform(30.0, 180.0);
      const auto& from_dial =
          dial.propagate(env, scenario, ignition, horizon, dial_ws);
      const auto& from_heap =
          heap.propagate(env, scenario, ignition, horizon, heap_ws);
      if (!(from_dial == from_heap)) ++queue_divergences;
      const auto& from_scalar =
          scalar.propagate(env, scenario, ignition, horizon, scalar_ws);
      if (!(from_dial == from_scalar)) ++simd_divergences;
    }
  }
  return catalog.size();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  simd::Mode mode = simd::Mode::kAuto;
  const char* json_path = "BENCH_sweep.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--simd") == 0 && i + 1 < argc) {
      const auto parsed = simd::parse_simd_mode(argv[++i]);
      if (!parsed) {
        std::fprintf(stderr, "--simd expects auto|avx2|scalar, got '%s'\n",
                     argv[i]);
        return 1;
      }
      mode = *parsed;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 1;
    }
  }

  const simd::Isa resolved = simd::resolve(mode);
  if (mode == simd::Mode::kAvx2 && resolved != simd::Isa::kAvx2) {
    // Forced AVX2 on a host without it: a scalar-vs-scalar "comparison"
    // would report nothing useful, so skip loudly instead (CI treats this
    // exit 0 + marker as skipped, not passed).
    std::printf(
        "sweep benchmark SKIPPED: --simd avx2 requested but this host does "
        "not support AVX2+FMA (detected: %s)\n",
        simd::to_string(simd::detected_isa()));
    std::FILE* out = std::fopen(json_path, "w");
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    std::fprintf(out, "{\n  \"benchmark\": \"sweep\",\n  \"skipped\": true,\n");
    std::fprintf(out,
                 "  \"skip_reason\": \"avx2 requested but unsupported\",\n");
    std::fprintf(out, "  \"hardware\": {%s},\n",
                 benchmain::hardware_json_fields().c_str());
    std::fprintf(out, "  \"settings\": {\"simd_mode\": \"%s\"}\n}\n",
                 simd::to_string(mode));
    std::fclose(out);
    std::printf("wrote %s\n", json_path);
    return 0;
  }

  // Bench-wide metrics registry: the sweep counters (pops, pushes, stale
  // pops, bucket re-drains) behind the timings land in the JSON below.
  obs::MetricsRegistry metrics;
  obs::install_metrics_registry(&metrics);

  const int grid = quick ? 48 : 64;
  const std::size_t scenarios = quick ? 16 : 32;
  const int rounds = quick ? 30 : 90;

  std::printf(
      "sweep benchmark: heap vs dial, scalar vs %s, %dx%d grids (%s)\n",
      simd::to_string(resolved), grid, grid, quick ? "quick" : "full");

  std::size_t queue_divergences = 0;
  std::size_t simd_divergences = 0;
  std::vector<GridResult> results;
  results.push_back(bench_grid("plains-uniform", synth::make_plains(grid),
                               scenarios, rounds, mode, queue_divergences,
                               simd_divergences));
  results.push_back(bench_grid("hills-dem", synth::make_hills(grid), scenarios,
                               rounds, mode, queue_divergences,
                               simd_divergences));
  // Double-edge grid: the regime the dial queue exists for — the heap's
  // log n grows with the active front, the bucket scan does not.
  results.push_back(bench_grid("plains-large", synth::make_plains(2 * grid),
                               scenarios / 2, std::max(1, rounds / 4), mode,
                               queue_divergences, simd_divergences));
  for (const GridResult& r : results)
    std::printf(
        "  %-14s %8.3fs heap  %8.3fs dial  %5.2fx queue  %5.2fx simd  "
        "(%.3g cells/sec)\n",
        r.name.c_str(), r.heap_seconds, r.dial_seconds, r.speedup(),
        r.simd_speedup(), r.cells_per_second());

  // Batched-backend arm: uniform terrain, the regime BatchSweep targets
  // (DEM workloads take its per-scenario fallback and would time the same
  // loop twice).
  std::size_t batched_divergences = 0;
  std::vector<BatchedResult> batched_results;
  for (const std::size_t batch : {std::size_t{8}, std::size_t{64}})
    batched_results.push_back(
        bench_batched("plains-batched", synth::make_plains(grid), batch,
                      std::max(1, rounds / 4), mode, batched_divergences));
  for (const BatchedResult& r : batched_results)
    std::printf(
        "  %-14s batch=%-3zu %8.3fs loop  %8.3fs batched  %5.2fx batched  "
        "(%zu table groups)\n",
        r.name.c_str(), r.batch, r.loop_seconds, r.batched_seconds,
        r.speedup(), r.table_groups);

  const std::size_t catalog_workloads =
      check_default_catalog(mode, queue_divergences, simd_divergences);
  std::printf(
      "  default catalog: %zu workloads checked, %zu queue / %zu simd "
      "divergences\n",
      catalog_workloads, queue_divergences, simd_divergences);
  const bool bit_identical = queue_divergences == 0 &&
                             simd_divergences == 0 && batched_divergences == 0;
  std::printf(
      "  bit-identical across heap/dial, scalar/%s and scalar/batched "
      "pairs: %s\n",
      simd::to_string(resolved), bit_identical ? "true" : "false");

  std::FILE* out = std::fopen(json_path, "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"sweep\",\n");
  std::fprintf(out, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(out, "  \"hardware\": {%s},\n",
               benchmain::hardware_json_fields().c_str());
  std::fprintf(out, "  %s,\n", benchmain::metrics_json_field().c_str());
  std::fprintf(out,
               "  \"settings\": {\"simd_mode\": \"%s\", "
               "\"simd_active\": \"%s\", \"queue\": \"heap-vs-dial\"},\n",
               simd::to_string(mode), simd::to_string(resolved));
  std::fprintf(out, "  \"grids\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const GridResult& r = results[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"rows\": %d, \"cols\": %d, "
                 "\"heap_seconds\": %.6f, \"dial_seconds\": %.6f, "
                 "\"scalar_seconds\": %.6f, \"speedup\": %.4f, "
                 "\"simd_speedup\": %.4f, \"cells_per_second\": %.1f}%s\n",
                 r.name.c_str(), r.rows, r.cols, r.heap_seconds,
                 r.dial_seconds, r.scalar_seconds, r.speedup(),
                 r.simd_speedup(), r.cells_per_second(),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"batched\": [\n");
  for (std::size_t i = 0; i < batched_results.size(); ++i) {
    const BatchedResult& r = batched_results[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"batch\": %zu, "
                 "\"loop_seconds\": %.6f, \"batched_seconds\": %.6f, "
                 "\"speedup\": %.4f, \"table_groups\": %zu}%s\n",
                 r.name.c_str(), r.batch, r.loop_seconds, r.batched_seconds,
                 r.speedup(), r.table_groups,
                 i + 1 < batched_results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"catalog_workloads_checked\": %zu,\n",
               catalog_workloads);
  std::fprintf(out, "  \"queue_divergences\": %zu,\n", queue_divergences);
  std::fprintf(out, "  \"simd_divergences\": %zu,\n", simd_divergences);
  std::fprintf(out, "  \"batched_divergences\": %zu,\n", batched_divergences);
  std::fprintf(out, "  \"bit_identical\": %s\n}\n",
               bit_identical ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", json_path);
  return bit_identical ? 0 : 1;
}
