// EXP-B6 — sweep benchmark: the FirePropagator Dijkstra sweep (dial queue)
// with the relax kernel the CPU picks against a sweep forced to the scalar
// kernel, single threaded, on the grid shapes that exercise both fast
// paths:
//
//   uniform   plains (travel-time-table inner loop, scenario-uniform fuels);
//   dem       hills (per-cell wind/slope composition + fuel mosaic).
//
// The timed sweeps continue from the workload's last ground-truth fire line
// to the next instant, as a job's Prediction Stage does: from the line's
// burned cells at its instant (firelib::burned_region), so they start from
// a live front around a settled interior; the JSON reports the mean pops
// per timed sweep. The two arms alternate which runs first in each round,
// so neither pays for running second. Every timed scenario is first
// checked for bit-identical ignition maps — the production sweep against
// the test-side reference propagator (tests/firelib/reference_propagator.hpp:
// binary heap, per-pop behavior) AND against the forced-scalar sweep — and
// the whole default campaign catalog is checked both ways as well, from
// point ignitions and from every ground-truth fire line to the next
// instant; any divergence makes the binary exit nonzero, which is how CI
// enforces the zero-divergence acceptance criterion. On a host without
// AVX2+FMA both sweeps run the scalar kernel and the ratio reads ~1.
//
// Flags:
//   --quick        smaller grids/rounds (CI Debug job); every divergence
//                  check still runs, but the arms last only milliseconds,
//                  so no speedup ratio is reported
//   --out PATH     JSON output path (default BENCH_sweep.json)
//
// The JSON carries hardware provenance (cores, detected ISA) and the kernel
// the CPU picked, so numbers are never compared across hosts blind.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/stopwatch.hpp"
#include "firelib/propagator.hpp"
#include "firelib/reference_propagator.hpp"
#include "synth/catalog.hpp"
#include "synth/ground_truth.hpp"
#include "synth/workloads.hpp"

namespace {

using namespace essns;

struct GridResult {
  std::string name;
  int rows = 0;
  int cols = 0;
  double seconds = 0.0;         // the CPU-picked kernel
  double scalar_seconds = 0.0;  // scalar kernel
  std::size_t cells_swept = 0;
  double mean_pops = 0.0;       // live pops per timed sweep
  double simd_speedup() const {
    return seconds > 0.0 ? scalar_seconds / seconds : 0.0;
  }
  double cells_per_second() const {
    return seconds > 0.0 ? static_cast<double>(cells_swept) / seconds : 0.0;
  }
};

/// Map divergences: the production sweep against the reference propagator,
/// and against the forced-scalar sweep.
struct Divergences {
  std::size_t reference = 0;
  std::size_t simd = 0;
};

/// The three sweeps every check compares, with their workspaces.
struct Sweeps {
  Sweeps() : production(model), scalar(model), reference(model) {
    scalar.set_simd_mode(simd::Mode::kScalar);
  }

  /// Run one scenario through all three, counting divergences.
  template <typename Seeds>
  void check(const firelib::FireEnvironment& env,
             const firelib::Scenario& scenario, const Seeds& seeds,
             double horizon, Divergences& divergences) {
    const auto& got =
        production.propagate(env, scenario, seeds, horizon, production_ws);
    if (!(got == reference.propagate(env, scenario, seeds, horizon)))
      ++divergences.reference;
    if (!(got == scalar.propagate(env, scenario, seeds, horizon, scalar_ws)))
      ++divergences.simd;
  }

  const firelib::FireSpreadModel model;
  firelib::FirePropagator production;
  firelib::FirePropagator scalar;
  const firelib::oracle::ReferencePropagator reference;
  firelib::PropagationWorkspace production_ws, scalar_ws;
};

/// What a prediction step continues from: line `line` of `truth` as the
/// cells it had burned at its instant.
firelib::IgnitionMap observed_start(const synth::GroundTruth& truth,
                                    int line) {
  const double instant = truth.time_of(line);
  return firelib::burned_region(
      firelib::burned_cells(truth.fire_lines[static_cast<std::size_t>(line)],
                            instant),
      instant);
}

/// Time the CPU-picked kernel against the scalar one on one workload,
/// continuing from its last ground-truth fire line to the next instant.
GridResult bench_grid(const std::string& name, const synth::Workload& workload,
                      std::size_t scenarios, int rounds,
                      obs::MetricsRegistry& metrics,
                      Divergences& divergences) {
  const firelib::FireEnvironment& env = workload.environment;
  Rng truth_rng(5);
  const synth::GroundTruth truth = synth::generate_ground_truth(
      env, workload.truth_config, truth_rng);
  const int line = truth.steps() - 1;
  const firelib::IgnitionMap start = observed_start(truth, line);
  const double horizon = truth.time_of(line + 1);

  const auto& space = firelib::ScenarioSpace::table1();
  Rng rng(2022);
  std::vector<firelib::Scenario> batch;
  for (std::size_t i = 0; i < scenarios; ++i) batch.push_back(space.sample(rng));

  Sweeps sweeps;
  GridResult result;
  result.name = name;
  result.rows = env.rows();
  result.cols = env.cols();

  // Warm both timed arms once, checking equivalence per scenario.
  for (const firelib::Scenario& scenario : batch)
    sweeps.check(env, scenario, start, horizon, divergences);

  // One pass of the batch through one arm, in seconds.
  const auto time_arm = [&](const firelib::FirePropagator& propagator,
                            firelib::PropagationWorkspace& workspace) {
    Stopwatch watch;
    for (const firelib::Scenario& scenario : batch)
      propagator.propagate(env, scenario, start, horizon, workspace);
    return watch.elapsed_seconds();
  };
  obs::Counter& pops = metrics.counter("sweep.cells_popped");
  std::uint64_t production_pops = 0;
  for (int round = 0; round < rounds; ++round) {
    // Even rounds run the CPU-picked arm first, odd rounds the scalar one.
    for (const bool scalar_arm : {round % 2 == 1, round % 2 == 0}) {
      if (scalar_arm) {
        result.scalar_seconds += time_arm(sweeps.scalar, sweeps.scalar_ws);
      } else {
        const std::uint64_t pops_before = pops.value();
        result.seconds +=
            time_arm(sweeps.production, sweeps.production_ws);
        production_pops += pops.value() - pops_before;
      }
    }
  }
  result.mean_pops = static_cast<double>(production_pops) /
                     (static_cast<double>(batch.size()) * rounds);
  // Map-output throughput (cells of ignition map produced per second), kept
  // out of the timed loops so the measurements stay symmetric.
  result.cells_swept = static_cast<std::size_t>(env.rows()) *
                       static_cast<std::size_t>(env.cols()) * batch.size() *
                       static_cast<std::size_t>(rounds);
  return result;
}

/// What check_default_catalog covered.
struct CatalogChecks {
  std::size_t workloads = 0;
  std::size_t continuations = 0;  ///< sweeps from a later fire line
};

/// Every workload of the default campaign catalog (the acceptance sweep):
/// point ignitions, a handful of scenarios each; then, as a campaign job
/// runs them, continuations from each fire line of the workload's ground
/// truth (its burned cells at its instant) to the next instant. Those start
/// from a settled interior and a live front, the sweeps the start-cell list
/// and the DEM travel-time floor shape most.
CatalogChecks check_default_catalog(Divergences& divergences) {
  const std::vector<synth::Workload> catalog =
      synth::generate_catalog(synth::CatalogSpec{});
  Sweeps sweeps;
  const auto& space = firelib::ScenarioSpace::table1();
  Rng rng(7);
  CatalogChecks checks;
  for (const synth::Workload& workload : catalog) {
    const firelib::FireEnvironment& env = workload.environment;
    const std::vector<CellIndex> ignition{{env.rows() / 2, env.cols() / 2}};
    for (int trial = 0; trial < 3; ++trial) {
      const firelib::Scenario scenario = space.sample(rng);
      const double horizon = rng.uniform(30.0, 180.0);
      sweeps.check(env, scenario, ignition, horizon, divergences);
    }
    Rng truth_rng(workload.seed);
    const synth::GroundTruth truth = synth::generate_truth(workload, truth_rng);
    for (int line = 0; line < truth.steps(); ++line) {
      const firelib::IgnitionMap start = observed_start(truth, line);
      for (int trial = 0; trial < 3; ++trial) {
        sweeps.check(env, space.sample(rng), start, truth.time_of(line + 1),
                     divergences);
        ++checks.continuations;
      }
    }
  }
  checks.workloads = catalog.size();
  return checks;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  const char* json_path = "BENCH_sweep.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 1;
    }
  }

  const simd::Isa resolved = simd::detected_isa();

  // Bench-wide metrics registry: the sweep counters (pops, pushes, stale
  // pops, bucket re-drains) behind the timings land in the JSON below, and
  // its pop counter gives each grid's mean pops per timed sweep.
  obs::MetricsRegistry metrics;
  obs::install_metrics_registry(&metrics);

  const int grid = quick ? 48 : 64;
  const std::size_t scenarios = quick ? 16 : 32;
  const int rounds = quick ? 30 : 90;

  std::printf(
      "sweep benchmark: reference oracle, scalar vs %s, %dx%d grids (%s)\n",
      simd::to_string(resolved), grid, grid, quick ? "quick" : "full");

  Divergences divergences;
  std::vector<GridResult> results;
  results.push_back(bench_grid("plains-uniform", synth::make_plains(grid),
                               scenarios, rounds, metrics, divergences));
  results.push_back(bench_grid("hills-dem", synth::make_hills(grid), scenarios,
                               rounds, metrics, divergences));
  // Double-edge grid: a wider active front per sweep.
  results.push_back(bench_grid("plains-large", synth::make_plains(2 * grid),
                               scenarios / 2, std::max(1, rounds / 4), metrics,
                               divergences));
  for (const GridResult& r : results) {
    std::printf("  %-14s %8.3fs %s  %8.3fs scalar", r.name.c_str(), r.seconds,
                simd::to_string(resolved), r.scalar_seconds);
    if (!quick) std::printf("  %5.2fx simd", r.simd_speedup());
    std::printf("  (%.3g cells/sec, %.0f pops/sweep)\n", r.cells_per_second(),
                r.mean_pops);
  }

  const CatalogChecks catalog = check_default_catalog(divergences);
  std::printf(
      "  default catalog: %zu workloads and %zu fire-line continuations "
      "checked, %zu reference / %zu simd divergences\n",
      catalog.workloads, catalog.continuations, divergences.reference,
      divergences.simd);
  const bool bit_identical =
      divergences.reference == 0 && divergences.simd == 0;
  std::printf(
      "  bit-identical to the reference and across scalar/%s: %s\n",
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
  std::fprintf(out, "  \"settings\": {\"simd_active\": \"%s\"},\n",
               simd::to_string(resolved));
  std::fprintf(out, "  \"grids\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const GridResult& r = results[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"rows\": %d, \"cols\": %d, "
                 "\"seconds\": %.6f, \"scalar_seconds\": %.6f, ",
                 r.name.c_str(), r.rows, r.cols, r.seconds, r.scalar_seconds);
    if (!quick)
      std::fprintf(out, "\"simd_speedup\": %.4f, ", r.simd_speedup());
    std::fprintf(out,
                 "\"cells_per_second\": %.1f, "
                 "\"mean_pops_per_sweep\": %.1f}%s\n",
                 r.cells_per_second(), r.mean_pops,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"catalog_workloads_checked\": %zu,\n",
               catalog.workloads);
  std::fprintf(out, "  \"catalog_continuations_checked\": %zu,\n",
               catalog.continuations);
  std::fprintf(out, "  \"reference_divergences\": %zu,\n",
               divergences.reference);
  std::fprintf(out, "  \"simd_divergences\": %zu,\n", divergences.simd);
  std::fprintf(out, "  \"bit_identical\": %s\n}\n",
               bit_identical ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", json_path);
  return bit_identical ? 0 : 1;
}
