// EXP-D — diversity over generations: the premature-convergence /
// population-stagnation behaviour of §II-B, measured on one real prediction
// step. For GA, DE, DE+tuning and NS-GA the genotypic diversity (mean
// pairwise genome distance) and fitness IQR (the ESSIM-DE tuning metric) are
// reported every few generations.
//
// Expected shape: GA and DE diversity collapse toward 0 (DE+tuning saws back
// up on restarts); NS-GA diversity stays high for the whole run.
#include <cstdio>

#include "common/table.hpp"
#include "core/ns_ga.hpp"
#include "ea/de.hpp"
#include "ea/ga.hpp"
#include "ea/tuning.hpp"
#include "ess/evaluator.hpp"
#include "metrics/diversity.hpp"
#include "synth/workloads.hpp"

int main() {
  using namespace essns;

  constexpr int kGenerations = 40;
  constexpr int kReportEvery = 5;
  constexpr std::size_t kPop = 24;

  synth::Workload workload = synth::make_plains(48);
  Rng truth_rng(3);
  const synth::GroundTruth truth = synth::generate_ground_truth(
      workload.environment, workload.truth_config, truth_rng);
  ess::ScenarioEvaluator evaluator(workload.environment);
  ess::Observations observations(truth, false);
  evaluator.set_step(observations, 1);
  auto evaluate = evaluator.batch_evaluator();
  const ea::StopCondition stop{kGenerations, 2.0};  // never stop on fitness

  struct Run {
    std::string name;
    metrics::TrajectoryRecorder recorder;
    int collapse = -1;
  };
  std::vector<Run> runs;

  {
    Run run{"ESS-GA", {}, -1};
    Rng rng(21);
    ea::GaConfig cfg;
    cfg.population_size = kPop;
    cfg.offspring_count = kPop;
    ea::run_ga(cfg, firelib::kParamCount, evaluate, stop, rng,
               run.recorder.observer());
    runs.push_back(std::move(run));
  }
  {
    Run run{"ESSIM-DE", {}, -1};
    Rng rng(21);
    ea::DeConfig cfg;
    cfg.population_size = kPop;
    ea::run_de(cfg, firelib::kParamCount, evaluate, stop, rng,
               run.recorder.observer());
    runs.push_back(std::move(run));
  }
  {
    Run run{"ESSIM-DE+tuning", {}, -1};
    Rng rng(21);
    ea::DeConfig cfg;
    cfg.population_size = kPop;
    ea::run_de(cfg, firelib::kParamCount, evaluate, stop, rng,
               run.recorder.observer(),
               ea::make_essim_de_tuning(8, 1e-4, 0.01, 4, rng));
    runs.push_back(std::move(run));
  }
  {
    Run run{"ESS-NS", {}, -1};
    Rng rng(21);
    core::NsGaConfig cfg;
    cfg.population_size = kPop;
    cfg.offspring_count = kPop;
    ea::StopCondition ns_stop = stop;
    core::run_ns_ga(cfg, firelib::kParamCount, evaluate, ns_stop, rng,
                    core::fitness_distance, run.recorder.observer());
    runs.push_back(std::move(run));
  }

  for (auto& run : runs) run.collapse = run.recorder.collapse_generation(0.25);

  TextTable diversity_table(
      "EXP-D genotypic diversity by generation (plains, one OS step)");
  std::vector<std::string> header{"Method"};
  for (int g = 0; g <= kGenerations; g += kReportEvery)
    header.push_back(std::string("g").append(std::to_string(g)));
  header.push_back("collapse<25%");
  diversity_table.set_header(header);
  for (const auto& run : runs) {
    std::vector<std::string> row{run.name};
    for (int g = 0; g <= kGenerations; g += kReportEvery)
      row.push_back(
          TextTable::num(run.recorder.rows()[static_cast<size_t>(g)].diversity));
    row.push_back(run.collapse < 0
                      ? "never"
                      : std::string("g").append(std::to_string(run.collapse)));
    diversity_table.add_row(row);
  }
  diversity_table.print();

  TextTable iqr_table("EXP-D fitness IQR by generation (ESSIM-DE tuning metric)");
  iqr_table.set_header(header);
  for (const auto& run : runs) {
    std::vector<std::string> row{run.name};
    for (int g = 0; g <= kGenerations; g += kReportEvery)
      row.push_back(
          TextTable::num(run.recorder.rows()[static_cast<size_t>(g)].iqr));
    row.push_back(run.collapse < 0
                      ? "never"
                      : std::string("g").append(std::to_string(run.collapse)));
    iqr_table.add_row(row);
  }
  std::printf("\n");
  iqr_table.print();

  TextTable best_table("EXP-D best fitness reached (same runs)");
  best_table.set_header({"Method", "best@g0", "best@final"});
  for (const auto& run : runs) {
    best_table.add_row({run.name,
                        TextTable::num(run.recorder.rows().front().best_fitness),
                        TextTable::num(run.recorder.rows().back().best_fitness)});
  }
  std::printf("\n");
  best_table.print();
  return 0;
}
