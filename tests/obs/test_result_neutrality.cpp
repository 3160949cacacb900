// The observability acceptance property: instrumentation is passive. A
// campaign run with tracing + metrics enabled must produce bit-identical
// results — quality, kign, evaluation counts, final maps — to the same
// campaign with observability off, at every worker count and job
// concurrency. CI runs this suite, so a span or counter that perturbs
// results cannot land.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/campaign.hpp"
#include "synth/workloads.hpp"

namespace essns::obs {
namespace {

std::vector<synth::Workload> tiny_workloads() {
  return {synth::make_plains(16, 11), synth::make_hills(16, 23)};
}

service::CampaignConfig tiny_config(unsigned workers,
                                    unsigned job_concurrency) {
  service::CampaignConfig config;
  config.spec.generations = 2;
  config.spec.population = 6;
  config.spec.offspring = 6;
  config.spec.fitness_threshold = 1.1;  // never early-stops: fixed work per run
  config.seed = 77;
  config.engine.total_workers = workers;
  config.engine.job_slots = job_concurrency;
  config.spec.keep_final_maps = true;
  return config;
}

void expect_bit_identical(const service::CampaignResult& baseline,
                          const service::CampaignResult& observed) {
  ASSERT_EQ(observed.jobs.size(), baseline.jobs.size());
  for (std::size_t i = 0; i < baseline.jobs.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    const service::JobRecord& a = baseline.jobs[i];
    const service::JobRecord& b = observed.jobs[i];
    EXPECT_EQ(a.status, b.status);
    ASSERT_EQ(b.result.steps.size(), a.result.steps.size());
    for (std::size_t s = 0; s < a.result.steps.size(); ++s) {
      SCOPED_TRACE("step " + std::to_string(s));
      const auto& sa = a.result.steps[s];
      const auto& sb = b.result.steps[s];
      // Bit-exact double comparison, not approximate.
      EXPECT_EQ(sa.kign, sb.kign);
      EXPECT_EQ(sa.calibration_fitness, sb.calibration_fitness);
      EXPECT_EQ(sa.best_os_fitness, sb.best_os_fitness);
      EXPECT_EQ(sa.prediction_quality, sb.prediction_quality);
      EXPECT_EQ(sa.os_evaluations, sb.os_evaluations);
      EXPECT_EQ(sa.os_generations, sb.os_generations);
    }
    ASSERT_EQ(b.final_probability.size(), a.final_probability.size());
    EXPECT_EQ(std::memcmp(a.final_probability.data(),
                          b.final_probability.data(),
                          a.final_probability.size() * sizeof(double)),
              0)
        << "final probability maps diverge";
    ASSERT_EQ(b.final_prediction.size(), a.final_prediction.size());
    EXPECT_EQ(std::memcmp(a.final_prediction.data(), b.final_prediction.data(),
                          a.final_prediction.size()),
              0)
        << "final fire lines diverge";
  }
}

TEST(ResultNeutrality, ObservabilityOnMatchesOffBitForBit) {
  const auto workloads = tiny_workloads();

  struct Case {
    unsigned workers;
    unsigned job_concurrency;
  };
  for (const Case c : {Case{1, 1}, Case{2, 1}, Case{2, 2}}) {
    SCOPED_TRACE("workers=" + std::to_string(c.workers) +
                 " jobs=" + std::to_string(c.job_concurrency));

    const service::CampaignResult baseline =
        service::CampaignScheduler(tiny_config(c.workers, c.job_concurrency))
            .run(workloads);
    ASSERT_EQ(baseline.succeeded(), workloads.size());

    // Full observability through the production plumbing: the scheduler
    // installs its own recorder + registry and writes both files.
    const std::string trace_path =
        ::testing::TempDir() + "neutrality_trace.json";
    const std::string metrics_path =
        ::testing::TempDir() + "neutrality_metrics.json";
    service::CampaignConfig observed_config =
        tiny_config(c.workers, c.job_concurrency);
    observed_config.engine.trace_out = trace_path;
    observed_config.engine.metrics_out = metrics_path;
    const service::CampaignResult observed =
        service::CampaignScheduler(observed_config).run(workloads);
    ASSERT_EQ(observed.succeeded(), workloads.size());
    EXPECT_FALSE(tracing_enabled()) << "session must uninstall its recorder";
    EXPECT_FALSE(metrics_enabled()) << "session must uninstall its registry";
    std::remove(trace_path.c_str());
    std::remove(metrics_path.c_str());

    expect_bit_identical(baseline, observed);
  }
}

TEST(ResultNeutrality, MetricsOnlyModeIsAlsoNeutral) {
  // metrics without tracing takes the other half of the enabled branches
  // (e.g. ThreadPool wraps tasks for histograms but records no spans).
  const auto workloads = tiny_workloads();
  const service::CampaignResult baseline =
      service::CampaignScheduler(tiny_config(2, 2)).run(workloads);
  ASSERT_EQ(baseline.succeeded(), workloads.size());

  const std::string metrics_path =
      ::testing::TempDir() + "neutrality_metrics_only.json";
  service::CampaignConfig observed_config = tiny_config(2, 2);
  observed_config.engine.metrics_out = metrics_path;
  const service::CampaignResult observed =
      service::CampaignScheduler(observed_config).run(workloads);
  ASSERT_EQ(observed.succeeded(), workloads.size());
  std::remove(metrics_path.c_str());

  expect_bit_identical(baseline, observed);
}

}  // namespace
}  // namespace essns::obs
