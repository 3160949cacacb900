// Campaign: concurrent multi-fire prediction over a generated scenario
// catalog — the service layer in one page.
//
// Demonstrates: expanding a CatalogSpec (terrain x weather x ignition) into
// distinct workloads, running one full OS->SS->CS->PS prediction job per
// workload through the CampaignScheduler with bounded job concurrency, and
// exporting each job's final probability matrix / predicted fire line as
// ESRI ASCII grids (load them in QGIS or any GIS viewer).
#include <cstdio>
#include <cstdlib>

#include "common/ascii_grid.hpp"
#include "service/campaign.hpp"
#include "service/report.hpp"
#include "synth/catalog.hpp"

int main(int argc, char** argv) {
  using namespace essns;

  const int size = argc > 1 ? std::atoi(argv[1]) : 48;
  if (size < 16) {
    std::fprintf(stderr, "usage: campaign [size >= 16]\n");
    return 1;
  }

  // Eight fires: plains and hills terrain under steady and drifting wind,
  // center and off-center outbreaks.
  synth::CatalogSpec spec;
  spec.terrains = {synth::TerrainFamily::kPlains, synth::TerrainFamily::kHills};
  spec.sizes = {size};
  spec.weather = {synth::WeatherRegime::kSteady,
                  synth::WeatherRegime::kWindShift};
  spec.ignitions = {synth::IgnitionPattern::kCenter,
                    synth::IgnitionPattern::kOffset};
  const std::vector<synth::Workload> workloads = synth::generate_catalog(spec);
  std::printf("campaign over %zu workloads on %dx%d maps\n", workloads.size(),
              size, size);

  service::CampaignConfig config;
  config.job_concurrency = 2;   // two prediction jobs in flight
  config.total_workers = 4;     // Master/Worker budget, split over the jobs
  config.spec.generations = 15;
  config.spec.population = 24;
  config.spec.offspring = 24;
  config.spec.keep_final_maps = true;
  config.on_job_done = [](const service::JobRecord& job) {
    std::printf("  finished %-28s %-9s %6.2fs\n", job.workload.c_str(),
                service::to_string(job.status), job.elapsed_seconds);
  };

  const service::CampaignScheduler scheduler(config);
  const service::CampaignResult result = scheduler.run(workloads);

  std::printf("\n");
  service::campaign_summary_table(result, "catalog campaign").print();
  std::printf("%.3f jobs/sec, mean quality %.3f over %zu/%zu jobs\n",
              result.jobs_per_second(), result.mean_quality(),
              result.succeeded(), result.jobs.size());

  // Export every job's last probability matrix and prediction for GIS tools.
  for (const auto& job : result.jobs) {
    if (job.status != service::JobStatus::kSucceeded) continue;
    const std::string stem = "campaign_" + job.workload;
    write_ascii_grid(stem + "_probability.asc", job.final_probability, 100.0);
    Grid<double> prediction(job.rows, job.cols, 0.0);
    for (int r = 0; r < job.rows; ++r)
      for (int c = 0; c < job.cols; ++c)
        prediction(r, c) = job.final_prediction(r, c);
    write_ascii_grid(stem + "_prediction.asc", prediction, 100.0);
  }
  std::printf("wrote campaign_<workload>_{probability,prediction}.asc\n");
  return result.failed() == 0 ? 0 : 2;
}
