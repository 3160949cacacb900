// EXP-Q — the headline experiment: per-step prediction quality (Eq. 3) of
// every system the paper discusses, on the three standard synthetic burn
// cases. This regenerates the quality tables of the ESS/ESSIM-EA/ESSIM-DE
// evaluation protocol and tests the paper's hypothesis that ESS-NS obtains
// comparable or better quality.
//
// Expected shape (see DESIGN.md §4 / EXPERIMENTS.md): ESS-NS >= the
// fitness-driven baselines on mean quality, with the largest margin on the
// non-stationary wind_shift case.
//
// The quality tables are deterministic, so their text is the same on every
// run; the wall-clock times follow in a table of their own.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "ess/essim.hpp"
#include "ess/pipeline.hpp"
#include "synth/workloads.hpp"

namespace {

using namespace essns;

std::vector<std::pair<std::string, std::unique_ptr<ess::Optimizer>>>
make_optimizers() {
  std::vector<std::pair<std::string, std::unique_ptr<ess::Optimizer>>> out;

  ea::GaConfig ga;
  ga.population_size = 24;
  ga.offspring_count = 24;
  out.emplace_back("ESS-GA", std::make_unique<ess::GaOptimizer>(ga));

  ess::IslandOptimizer::Options island;
  island.islands = 3;
  island.migration_interval = 5;
  island.ga.population_size = 8;  // 3 islands x 8 = same total population
  island.ga.offspring_count = 8;
  island.ga.elite_count = 1;
  out.emplace_back("ESSIM-EA",
                   std::make_unique<ess::IslandOptimizer>(island));

  ess::DeOptimizer::Options de;
  de.de.population_size = 24;
  out.emplace_back("ESSIM-DE", std::make_unique<ess::DeOptimizer>(de));

  ess::DeOptimizer::Options tuned = de;
  tuned.with_tuning = true;
  out.emplace_back("ESSIM-DE+tuning",
                   std::make_unique<ess::DeOptimizer>(tuned));

  core::NsGaConfig ns;
  ns.population_size = 24;
  ns.offspring_count = 24;
  ns.novelty_k = 10;
  ns.best_set_capacity = 24;
  out.emplace_back("ESS-NS", std::make_unique<ess::NsGaOptimizer>(ns));
  return out;
}

}  // namespace

int main() {
  constexpr int kGridSize = 48;
  constexpr int kSeeds = 3;  // repetitions averaged per (workload, method)

  std::vector<synth::Workload> cases = synth::standard_workloads(kGridSize);
  cases.push_back(synth::make_diurnal(kGridSize));
  // seconds[case][method]: mean wall-clock of one pipeline run.
  std::vector<std::string> methods;
  std::vector<std::vector<double>> seconds;
  for (const auto& workload : cases) {
    seconds.emplace_back();
    Rng truth_rng(2022);
    const synth::GroundTruth truth =
        synth::generate_truth(workload, truth_rng);

    TextTable table("EXP-Q prediction quality — case '" + workload.name +
                    "' (Jaccard per predicted step, mean of " +
                    std::to_string(kSeeds) + " runs)");
    std::vector<std::string> header{"Method"};
    for (int s = 2; s <= truth.steps(); ++s)
      header.push_back(std::string("t").append(std::to_string(s)));
    header.push_back("mean");
    table.set_header(header);

    for (auto& [name, optimizer] : make_optimizers()) {
      std::vector<double> per_step(static_cast<std::size_t>(truth.steps()) - 1,
                                   0.0);
      double total_time = 0.0;
      for (int seed = 0; seed < kSeeds; ++seed) {
        ess::PipelineConfig config;
        config.stop = {20, 0.95};
        ess::PredictionPipeline pipeline(workload.environment, truth, config);
        Rng rng(static_cast<std::uint64_t>(seed) * 101 + 7);
        Stopwatch watch;
        const ess::PipelineResult result = pipeline.run(*optimizer, rng);
        total_time += watch.elapsed_seconds();
        for (std::size_t i = 0; i < result.steps.size(); ++i)
          per_step[i] += result.steps[i].prediction_quality;
      }
      std::vector<std::string> row{name};
      double mean = 0.0;
      for (double& q : per_step) {
        q /= kSeeds;
        mean += q;
        row.push_back(TextTable::num(q));
      }
      row.push_back(TextTable::num(mean / static_cast<double>(per_step.size())));
      table.add_row(row);
      if (seconds.size() == 1) methods.push_back(name);
      seconds.back().push_back(total_time / kSeeds);
    }
    table.print();
    std::printf("\n");
  }

  TextTable timing("EXP-Q wall-clock seconds per run (mean of " +
                   std::to_string(kSeeds) + " runs; varies run to run)");
  std::vector<std::string> header{"Method"};
  for (const auto& workload : cases) header.push_back(workload.name);
  timing.set_header(header);
  for (std::size_t m = 0; m < methods.size(); ++m) {
    std::vector<std::string> row{methods[m]};
    for (const auto& per_case : seconds)
      row.push_back(TextTable::num(per_case[m], 2));
    timing.add_row(row);
  }
  timing.print();
  return 0;
}
