#include "service/campaign.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "common/error.hpp"
#include "service/report.hpp"
#include "synth/catalog.hpp"

namespace essns::service {
namespace {

// Tiny but real campaign: 4 distinct fires on 16x16 maps, 3 truth steps
// (2 predicted), small search budget — fast enough for every test below.
std::vector<synth::Workload> tiny_workloads() {
  synth::CatalogSpec spec;
  spec.terrains = {synth::TerrainFamily::kPlains,
                   synth::TerrainFamily::kHills};
  spec.sizes = {16};
  spec.weather = {synth::WeatherRegime::kSteady};
  spec.ignitions = {synth::IgnitionPattern::kCenter,
                    synth::IgnitionPattern::kOffset};
  spec.steps = 3;
  spec.base_seed = 11;
  return synth::generate_catalog(spec);
}

CampaignConfig tiny_config() {
  CampaignConfig config;
  config.spec.generations = 3;
  config.spec.population = 8;
  config.spec.offspring = 8;
  config.seed = 77;
  return config;
}

TEST(CampaignScheduler, RunsEveryJobToCompletion) {
  const auto workloads = tiny_workloads();
  CampaignConfig config = tiny_config();
  config.engine.job_slots = 2;
  config.engine.total_workers = 2;
  const CampaignScheduler scheduler(config);
  const CampaignResult result = scheduler.run(workloads);

  ASSERT_EQ(result.jobs.size(), workloads.size());
  EXPECT_EQ(result.succeeded(), workloads.size());
  EXPECT_EQ(result.failed(), 0u);
  EXPECT_GT(result.wall_seconds, 0.0);
  EXPECT_GT(result.jobs_per_second(), 0.0);
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    const JobRecord& job = result.jobs[i];
    EXPECT_EQ(job.index, i) << "results must keep submission order";
    EXPECT_EQ(job.workload, workloads[i].name);
    EXPECT_EQ(job.status, JobStatus::kSucceeded);
    EXPECT_TRUE(job.error.empty());
    EXPECT_EQ(job.result.steps.size(), 2u);  // steps=3 -> 2 predicted
    EXPECT_GT(job.elapsed_seconds, 0.0);
    EXPECT_NE(job.seed, 0u);
  }
}

TEST(CampaignScheduler, DeterministicAcrossJobConcurrency) {
  const auto workloads = tiny_workloads();

  auto run_at = [&](unsigned jobs) {
    CampaignConfig config = tiny_config();
    config.engine.job_slots = jobs;
    config.engine.total_workers = 4;
    return CampaignScheduler(config).run(workloads);
  };
  const CampaignResult serial = run_at(1);
  const CampaignResult concurrent = run_at(4);

  ASSERT_EQ(serial.jobs.size(), concurrent.jobs.size());
  for (std::size_t i = 0; i < serial.jobs.size(); ++i) {
    const JobRecord& a = serial.jobs[i];
    const JobRecord& b = concurrent.jobs[i];
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.status, b.status);
    ASSERT_EQ(a.result.steps.size(), b.result.steps.size());
    for (std::size_t s = 0; s < a.result.steps.size(); ++s) {
      // Bit-identical, not approximately equal: the campaign contract.
      EXPECT_EQ(a.result.steps[s].kign, b.result.steps[s].kign);
      EXPECT_EQ(a.result.steps[s].calibration_fitness,
                b.result.steps[s].calibration_fitness);
      EXPECT_EQ(a.result.steps[s].prediction_quality,
                b.result.steps[s].prediction_quality);
      EXPECT_EQ(a.result.steps[s].os_evaluations,
                b.result.steps[s].os_evaluations);
    }
  }
}

TEST(CampaignScheduler, FailedJobIsIsolated) {
  auto workloads = tiny_workloads();
  // Sabotage one job: an out-of-bounds outbreak makes ground-truth
  // generation throw inside that job's pipeline.
  workloads[1].truth_config.ignition = {1000, 1000};
  workloads[1].name = "broken";

  CampaignConfig config = tiny_config();
  config.engine.job_slots = 2;
  const CampaignScheduler scheduler(config);
  const CampaignResult result = scheduler.run(workloads);

  ASSERT_EQ(result.jobs.size(), workloads.size());
  EXPECT_EQ(result.failed(), 1u);
  EXPECT_EQ(result.succeeded(), workloads.size() - 1);
  EXPECT_EQ(result.jobs[1].status, JobStatus::kFailed);
  EXPECT_NE(result.jobs[1].error.find("ignition"), std::string::npos)
      << "error text should carry the thrown message, got: "
      << result.jobs[1].error;
  EXPECT_TRUE(result.jobs[1].result.steps.empty());
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}, std::size_t{3}})
    EXPECT_EQ(result.jobs[i].status, JobStatus::kSucceeded);
  EXPECT_GT(result.mean_quality(), 0.0) << "mean skips failed jobs";
}

TEST(CampaignScheduler, SplitsWorkerBudgetAcrossConcurrentJobs) {
  CampaignConfig config = tiny_config();
  config.engine.job_slots = 2;
  config.engine.total_workers = 4;
  EXPECT_EQ(CampaignScheduler(config).workers_per_job(8), 2u);
  config.engine.job_slots = 8;  // more slots than jobs: split over the jobs
  EXPECT_EQ(CampaignScheduler(config).workers_per_job(2), 2u);
  config.engine.job_slots = 16;  // budget exhausted: floor at one worker
  EXPECT_EQ(CampaignScheduler(config).workers_per_job(16), 1u);
}

TEST(CampaignScheduler, ReportsCompletionCallbackOncePerJob) {
  const auto workloads = tiny_workloads();
  std::atomic<int> done{0};
  CampaignConfig config = tiny_config();
  config.engine.job_slots = 4;
  config.engine.on_job_done = [&done](const JobRecord&) { ++done; };
  CampaignScheduler(config).run(workloads);
  EXPECT_EQ(done.load(), static_cast<int>(workloads.size()));
}

TEST(CampaignScheduler, KeepsFinalMapsOnRequest) {
  auto workloads = tiny_workloads();
  workloads.erase(workloads.begin() + 1, workloads.end());
  CampaignConfig config = tiny_config();
  config.spec.keep_final_maps = true;
  const CampaignResult result = CampaignScheduler(config).run(workloads);
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_EQ(result.jobs[0].final_probability.rows(), 16);
  EXPECT_EQ(result.jobs[0].final_prediction.rows(), 16);
}

TEST(CampaignScheduler, RejectsNonOptimizerMethods) {
  CampaignConfig config = tiny_config();
  config.spec.method = "essim-monitor";
  EXPECT_THROW(CampaignScheduler{config}, InvalidArgument);
  config.spec.method = "no-such-method";
  EXPECT_THROW(CampaignScheduler{config}, InvalidArgument);
}

TEST(CampaignScheduler, EmptyCampaignIsANoOp) {
  const CampaignResult result =
      CampaignScheduler(tiny_config()).run({});
  EXPECT_TRUE(result.jobs.empty());
  EXPECT_EQ(result.jobs_per_second(), 0.0);
  EXPECT_EQ(result.mean_quality(), 0.0);
}

TEST(CampaignReport, JsonlHasOneLinePerJobWithErrors) {
  auto workloads = tiny_workloads();
  workloads[2].truth_config.ignition = {-5, -5};
  CampaignConfig config = tiny_config();
  const CampaignResult result = CampaignScheduler(config).run(workloads);

  std::ostringstream out;
  write_campaign_jsonl(result, out);
  const std::string text = out.str();

  std::size_t lines = 0;
  for (const char c : text)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, workloads.size());
  EXPECT_NE(text.find("\"workload\":\"plains16-steady-center-s0\""),
            std::string::npos);
  EXPECT_NE(text.find("\"status\":\"failed\""), std::string::npos);
  EXPECT_NE(text.find("\"error\":"), std::string::npos);
  EXPECT_NE(text.find("\"os_seconds\":"), std::string::npos);
  EXPECT_NE(text.find("\"kign\":"), std::string::npos);
}

TEST(CampaignReport, CsvHasOneRowPerPredictedStep) {
  const auto workloads = tiny_workloads();
  const CampaignResult result =
      CampaignScheduler(tiny_config()).run(workloads);

  std::ostringstream out;
  write_campaign_csv(result, out);
  std::istringstream in(out.str());
  std::string line;
  std::size_t rows = 0;
  while (std::getline(in, line)) ++rows;
  // Header + 2 predicted steps per succeeded job.
  EXPECT_EQ(rows, 1 + workloads.size() * 2);
}

TEST(CampaignReport, SummaryJsonCarriesThroughput) {
  const CampaignResult result =
      CampaignScheduler(tiny_config()).run(tiny_workloads());
  const std::string json = campaign_summary_json(result);
  EXPECT_NE(json.find("\"jobs\":4"), std::string::npos);
  EXPECT_NE(json.find("\"jobs_per_second\":"), std::string::npos);
  EXPECT_NE(json.find("\"mean_quality\":"), std::string::npos);
  EXPECT_NE(json.find("\"cache_policy\":\"step\""), std::string::npos);
  EXPECT_NE(json.find("\"cache_evictions\":"), std::string::npos);
  EXPECT_NE(json.find("\"cache_bytes\":"), std::string::npos);
  // One row per job plus the campaign-wide cache/quality rollup row.
  const TextTable table = campaign_summary_table(result);
  EXPECT_EQ(table.row_count(), result.jobs.size() + 1);
}

TEST(CampaignResultStats, SucceededPerSecondCountsOnlyDeliveredJobs) {
  CampaignResult result;
  result.jobs.resize(4);
  result.jobs[0].status = JobStatus::kSucceeded;
  result.jobs[1].status = JobStatus::kSucceeded;
  result.jobs[2].status = JobStatus::kSucceeded;
  result.jobs[3].status = JobStatus::kFailed;
  result.wall_seconds = 2.0;
  EXPECT_DOUBLE_EQ(result.jobs_per_second(), 2.0);       // 4 disposed / 2s
  EXPECT_DOUBLE_EQ(result.succeeded_per_second(), 1.5);  // 3 delivered / 2s

  result.wall_seconds = 0.0;
  EXPECT_DOUBLE_EQ(result.succeeded_per_second(), 0.0);

  // Both land in the summary JSON, jobs_per_second first.
  result.wall_seconds = 2.0;
  const std::string json = campaign_summary_json(result);
  const auto jps = json.find("\"jobs_per_second\":2");
  const auto sps = json.find("\"succeeded_per_second\":1.5");
  ASSERT_NE(jps, std::string::npos);
  ASSERT_NE(sps, std::string::npos);
  EXPECT_LT(jps, sps);
}

TEST(CampaignReport, ZeroTimingsRendersWallClockFieldsAsZero) {
  const CampaignResult result =
      CampaignScheduler(tiny_config()).run(tiny_workloads());
  const ReportOptions zero{/*zero_timings=*/true};

  std::ostringstream jsonl;
  write_campaign_jsonl(result, jsonl, zero);
  EXPECT_NE(jsonl.str().find("\"elapsed_seconds\":0"), std::string::npos);
  EXPECT_EQ(jsonl.str().find("\"elapsed_seconds\":0."), std::string::npos)
      << "every elapsed field must render exactly as 0";

  const std::string summary = campaign_summary_json(result, zero);
  EXPECT_NE(summary.find("\"wall_seconds\":0,"), std::string::npos);
  EXPECT_NE(summary.find("\"jobs_per_second\":0,"), std::string::npos);
  EXPECT_NE(summary.find("\"succeeded_per_second\":0,"), std::string::npos);
  // The deterministic fields stay untouched: mean_quality renders the same
  // bytes in canonical and wall-clock mode.
  const auto field = [](const std::string& json, const std::string& key) {
    const auto start = json.find(key);
    EXPECT_NE(start, std::string::npos) << key;
    return json.substr(start, json.find(',', start) - start);
  };
  EXPECT_EQ(field(summary, "\"mean_quality\":"),
            field(campaign_summary_json(result), "\"mean_quality\":"));

  // Two runs of the same campaign render identical canonical bytes (the
  // default "wall" mode differs in the timing fields).
  const CampaignResult again =
      CampaignScheduler(tiny_config()).run(tiny_workloads());
  std::ostringstream jsonl_again;
  write_campaign_jsonl(again, jsonl_again, zero);
  EXPECT_EQ(jsonl.str(), jsonl_again.str());
}

TEST(CampaignScheduler, SharedCacheBitIdenticalToOffAcrossConcurrency) {
  // The acceptance property of the shared cache: every cached value is a
  // byte-exact pure function of its key, so a campaign run with the shared
  // cache — at any job concurrency, even with a budget tiny enough to force
  // eviction — produces bit-identical per-job results to running with the
  // cache off.
  const auto workloads = tiny_workloads();
  constexpr std::size_t kTinyBudget = std::size_t{64} << 10;  // forces eviction

  auto run_with = [&](cache::CachePolicy policy, unsigned jobs,
                      std::size_t mem_bytes) {
    CampaignConfig config = tiny_config();
    config.engine.job_slots = jobs;
    config.engine.total_workers = jobs;
    config.spec.cache_policy = policy;
    if (mem_bytes != 0) config.engine.cache_mem_bytes = mem_bytes;
    return CampaignScheduler(config).run(workloads);
  };

  const CampaignResult off = run_with(cache::CachePolicy::kOff, 1, 0);
  ASSERT_EQ(off.succeeded(), workloads.size());
  EXPECT_EQ(off.cache_hits(), 0u);

  struct Case {
    unsigned jobs;
    std::size_t mem_bytes;  // 0 = default budget
  };
  for (const Case c : {Case{1, 0}, Case{4, 0}, Case{1, kTinyBudget},
                       Case{4, kTinyBudget}}) {
    SCOPED_TRACE("jobs=" + std::to_string(c.jobs) +
                 " mem=" + std::to_string(c.mem_bytes));
    const CampaignResult shared =
        run_with(cache::CachePolicy::kShared, c.jobs, c.mem_bytes);
    ASSERT_EQ(shared.jobs.size(), off.jobs.size());
    for (std::size_t i = 0; i < off.jobs.size(); ++i) {
      const JobRecord& a = off.jobs[i];
      const JobRecord& b = shared.jobs[i];
      EXPECT_EQ(a.status, b.status);
      ASSERT_EQ(a.result.steps.size(), b.result.steps.size());
      for (std::size_t s = 0; s < a.result.steps.size(); ++s) {
        // Bit-identical, not approximately equal.
        EXPECT_EQ(a.result.steps[s].kign, b.result.steps[s].kign);
        EXPECT_EQ(a.result.steps[s].calibration_fitness,
                  b.result.steps[s].calibration_fitness);
        EXPECT_EQ(a.result.steps[s].best_os_fitness,
                  b.result.steps[s].best_os_fitness);
        EXPECT_EQ(a.result.steps[s].prediction_quality,
                  b.result.steps[s].prediction_quality);
        EXPECT_EQ(a.result.steps[s].os_evaluations,
                  b.result.steps[s].os_evaluations);
      }
    }
    EXPECT_GT(shared.cache_hits(), 0u);
    EXPECT_LE(shared.shared_cache_stats.bytes, shared.cache_mem_bytes)
        << "shared cache must stay within its byte budget";
    if (c.mem_bytes != 0) {
      EXPECT_GT(shared.shared_cache_stats.evictions +
                    shared.shared_cache_stats.insertions_rejected,
                0u)
          << "tiny budget should force eviction";
    } else {
      EXPECT_GT(shared.shared_cache_stats.entries, 0u);
    }
  }
}

TEST(CampaignScheduler, InjectedSharedCacheWarmsAcrossCampaigns) {
  // A pre-warmed cache handed to a second identical campaign turns nearly
  // every simulation into a hit — the cross-campaign sharing the layer
  // exists for.
  const auto workloads = tiny_workloads();
  CampaignConfig config = tiny_config();
  config.spec.cache_policy = cache::CachePolicy::kShared;
  config.engine.shared_cache = std::make_shared<cache::SharedScenarioCache>();

  const CampaignResult cold = CampaignScheduler(config).run(workloads);
  ASSERT_EQ(cold.succeeded(), workloads.size());
  const CampaignResult warm = CampaignScheduler(config).run(workloads);
  ASSERT_EQ(warm.succeeded(), workloads.size());

  EXPECT_GT(warm.cache_hit_rate(), cold.cache_hit_rate());
  for (std::size_t i = 0; i < cold.jobs.size(); ++i)
    EXPECT_EQ(cold.jobs[i].result.mean_quality(),
              warm.jobs[i].result.mean_quality())
        << "warm hits must not change results";
}

TEST(CampaignReport, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

}  // namespace
}  // namespace essns::service
