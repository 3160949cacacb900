// EXP-B9 — serving benchmark: an in-process serve::Server driven over a
// real loopback socket through the line protocol, measuring the production
// re-prediction pattern end to end (socket + parse + engine queue + EA +
// cache + response formatting):
//
//   cold    predict N distinct fires (distinct seeds — nothing shareable);
//   warm    repredict every fire at the same horizon, several rounds — the
//           steady-state refreshes, answered from each fire's record of
//           that horizon without running a job;
//   extend  repredict every fire one step further out — the successive
//           observation intervals of the paper's workflow: each job resumes
//           from the fire's record and runs only the new step, cold.
//
// Enforced invariants (any violation exits nonzero, which is how CI pins
// the acceptance criteria):
//   - every response's deterministic prefix is byte-identical to an
//     in-process oracle (service::run_prediction_job with the cache OFF,
//     formatted through the same serve::format_job_response);
//   - the warm phase performs zero cache misses;
//   - warm repredictions run at least 2x faster than cold predictions.
//
// Reported (BENCH_serve.json): per-phase requests/sec and latency
// mean/p50/p99, the warm and extend speedups over cold, divergence and
// warm-miss counts, plus the server's own metrics scrape. Plain main on
// purpose (no Google Benchmark) so the target always builds.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "common/statistics.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "service/engine.hpp"
#include "synth/catalog.hpp"

namespace {

using namespace essns;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct PhaseStats {
  std::string name;
  std::vector<double> latencies;  ///< per-request wall seconds
  double wall_seconds = 0.0;

  double mean() const {
    double sum = 0.0;
    for (double x : latencies) sum += x;
    return latencies.empty() ? 0.0
                             : sum / static_cast<double>(latencies.size());
  }
  double percentile(double q) const {
    std::vector<double> sorted = latencies;
    std::sort(sorted.begin(), sorted.end());
    return sorted.empty() ? 0.0 : quantile_sorted(sorted, q);
  }
  double requests_per_sec() const {
    return wall_seconds > 0.0
               ? static_cast<double>(latencies.size()) / wall_seconds
               : 0.0;
  }
};

/// The deterministic prefix of a prediction response: everything before the
/// " seconds=" timing/cache suffix (see serve/protocol.hpp).
std::string deterministic_prefix(const std::string& line) {
  const std::size_t pos = line.find(" seconds=");
  return pos == std::string::npos ? line : line.substr(0, pos);
}

/// Timing/cache suffix value, e.g. suffix_counter(line, " cache_misses=").
std::uint64_t suffix_counter(const std::string& line, const char* key) {
  const std::size_t pos = line.find(key);
  if (pos == std::string::npos) return 0;
  return std::strtoull(line.c_str() + pos + std::strlen(key), nullptr, 10);
}

/// What the server must answer for (id, verb, fire): the pure job function
/// run with the cache OFF — if the engine's shared cache ever changed a
/// result, the comparison against this oracle catches it.
std::string oracle_response(const std::string& id, serve::Verb verb,
                            const synth::WorkloadRequest& fire,
                            const serve::ServeConfig& config,
                            unsigned workers) {
  const synth::Workload workload = synth::make_workload(fire);
  service::JobSpec spec = config.default_spec;
  spec.cache_policy = cache::CachePolicy::kOff;
  const service::JobRecord record = service::run_prediction_job(
      workload, /*index=*/0, config.seed, workers, spec, simd::Mode::kAuto,
      parallel::NumaMode::kAuto, firelib::SweepBackend::kScalar, nullptr);
  return serve::format_job_response(id, verb, record);
}

}  // namespace

int main(int argc, char** argv) {
  // --quick: smaller fires and fewer rounds for CI smoke tracking.
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  const std::size_t fires = quick ? 4 : 8;
  const int warm_rounds = quick ? 2 : 3;
  const unsigned workers =
      std::min(4u, std::max(1u, std::thread::hardware_concurrency()));

  serve::ServeConfig config;
  config.engine.job_slots = 1;  // serial engine: latencies are service times
  config.engine.total_workers = workers;
  config.engine.queue_capacity = 32;
  config.default_fire.size = quick ? 16 : 24;
  config.default_fire.steps = quick ? 3 : 4;
  config.default_spec.generations = quick ? 3 : 6;
  config.default_spec.population = quick ? 8 : 12;
  config.default_spec.offspring = quick ? 8 : 12;
  config.default_spec.fitness_threshold = 1.1;  // fixed generation budget

  std::printf(
      "serve benchmark (%s): %zu fires, grid %d, %d steps, %u workers\n",
      quick ? "quick" : "full", fires, config.default_fire.size,
      config.default_fire.steps, workers);

  serve::Server server(config);
  server.start();
  std::thread server_thread([&server] { server.run(); });

  std::size_t divergences = 0;
  std::uint64_t warm_misses = 0;
  PhaseStats cold{"cold", {}, 0.0};
  PhaseStats warm{"warm", {}, 0.0};
  PhaseStats extend{"extend", {}, 0.0};
  std::string metrics_json = "null";

  {
    serve::LineClient client("127.0.0.1", server.port(), 600.0);

    auto timed = [&](PhaseStats& phase, const std::string& request,
                     const std::string& expected_prefix) {
      const double start = now_seconds();
      const std::string response = client.request(request);
      phase.latencies.push_back(now_seconds() - start);
      if (deterministic_prefix(response) != expected_prefix) {
        ++divergences;
        std::fprintf(stderr, "DIVERGED on '%s'\n  server: %s\n  oracle: %s\n",
                     request.c_str(), response.c_str(),
                     expected_prefix.c_str());
      }
      return response;
    };

    // Per-fire oracles, computed up front so oracle time never leaks into
    // the phase clocks. Distinct seeds keep the cold phase genuinely cold.
    std::vector<synth::WorkloadRequest> fire_params(fires);
    std::vector<std::string> cold_expected(fires), warm_expected(fires),
        extend_expected(fires);
    for (std::size_t i = 0; i < fires; ++i) {
      synth::WorkloadRequest fire = config.default_fire;
      fire.seed = 1000 + 17 * i;
      fire_params[i] = fire;
      const std::string id = "bench" + std::to_string(i);
      cold_expected[i] =
          oracle_response(id, serve::Verb::kPredict, fire, config, workers);
      warm_expected[i] =
          oracle_response(id, serve::Verb::kRepredict, fire, config, workers);
      synth::WorkloadRequest extended = fire;
      extended.steps += 1;
      extend_expected[i] = oracle_response(id, serve::Verb::kRepredict,
                                           extended, config, workers);
    }

    double phase_start = now_seconds();
    for (std::size_t i = 0; i < fires; ++i)
      timed(cold,
            "predict id=bench" + std::to_string(i) +
                " seed=" + std::to_string(fire_params[i].seed),
            cold_expected[i]);
    cold.wall_seconds = now_seconds() - phase_start;

    phase_start = now_seconds();
    for (int round = 0; round < warm_rounds; ++round)
      for (std::size_t i = 0; i < fires; ++i) {
        const std::string response =
            timed(warm, "repredict id=bench" + std::to_string(i),
                  warm_expected[i]);
        warm_misses += suffix_counter(response, " cache_misses=");
      }
    warm.wall_seconds = now_seconds() - phase_start;

    phase_start = now_seconds();
    for (std::size_t i = 0; i < fires; ++i)
      timed(extend,
            "repredict id=bench" + std::to_string(i) +
                " steps=" + std::to_string(fire_params[i].steps + 1),
            extend_expected[i]);
    extend.wall_seconds = now_seconds() - phase_start;

    const std::string metrics = client.request("metrics");
    if (metrics.rfind("ok ", 0) == 0) metrics_json = metrics.substr(3);
    client.request("shutdown");
  }
  server_thread.join();

  const double warm_speedup =
      warm.mean() > 0.0 ? cold.mean() / warm.mean() : 0.0;
  const double extend_speedup =
      extend.mean() > 0.0 ? cold.mean() / extend.mean() : 0.0;

  const PhaseStats* phases[] = {&cold, &warm, &extend};
  for (const PhaseStats* phase : phases)
    std::printf(
        "  %-6s %3zu requests  %7.2f req/s  mean %8.4fs  p50 %8.4fs  "
        "p99 %8.4fs\n",
        phase->name.c_str(), phase->latencies.size(),
        phase->requests_per_sec(), phase->mean(), phase->percentile(0.5),
        phase->percentile(0.99));
  std::printf("  warm vs cold:   %.2fx\n", warm_speedup);
  std::printf("  extend vs cold: %.2fx\n", extend_speedup);
  std::printf("  oracle divergences: %zu\n", divergences);
  std::printf("  warm-phase cache misses: %llu\n",
              static_cast<unsigned long long>(warm_misses));

  const bool ok = divergences == 0 && warm_misses == 0 && warm_speedup >= 2.0;

  const char* json_path = "BENCH_serve.json";
  std::FILE* out = std::fopen(json_path, "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"serve\",\n");
  std::fprintf(out, "  \"hardware\": {%s},\n",
               benchmain::hardware_json_fields().c_str());
  std::fprintf(out, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(out,
               "  \"fires\": %zu,\n  \"grid\": %d,\n  \"steps\": %d,\n"
               "  \"generations\": %d,\n  \"population\": %zu,\n"
               "  \"job_slots\": %u,\n  \"workers\": %u,\n",
               fires, config.default_fire.size, config.default_fire.steps,
               config.default_spec.generations, config.default_spec.population,
               config.engine.job_slots, workers);
  std::fprintf(out, "  \"phases\": [\n");
  for (std::size_t i = 0; i < 3; ++i) {
    const PhaseStats& phase = *phases[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"requests\": %zu, "
                 "\"requests_per_sec\": %.4f, \"mean_seconds\": %.6f, "
                 "\"p50_seconds\": %.6f, \"p99_seconds\": %.6f}%s\n",
                 phase.name.c_str(), phase.latencies.size(),
                 phase.requests_per_sec(), phase.mean(), phase.percentile(0.5),
                 phase.percentile(0.99), i + 1 < 3 ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"warm_speedup_vs_cold\": %.4f,\n", warm_speedup);
  std::fprintf(out, "  \"extend_speedup_vs_cold\": %.4f,\n", extend_speedup);
  std::fprintf(out, "  \"oracle_divergences\": %zu,\n", divergences);
  std::fprintf(out, "  \"warm_cache_misses\": %llu,\n",
               static_cast<unsigned long long>(warm_misses));
  std::fprintf(out, "  \"passed\": %s,\n", ok ? "true" : "false");
  std::fprintf(out, "  \"server_metrics\": %s\n}\n", metrics_json.c_str());
  std::fclose(out);
  std::printf("wrote %s\n", json_path);
  return ok ? 0 : 1;
}
