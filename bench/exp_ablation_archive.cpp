// EXP-A — ablation of the NS design choices the paper singles out (§III-B,
// §IV): the archive replacement policy (novelty-ranked baseline vs the
// randomized, threshold and unbounded variants) and the neighbourhood size k
// of Eq. (1) (including the whole-population variant k <= 0).
//
// Each configuration runs the full NS-GA on one wildfire OS step; reported
// are the bestSet max/mean fitness (what the SS would consume) and the final
// archive size.
#include <cstdio>

#include "common/table.hpp"
#include "core/ns_ga.hpp"
#include "ess/evaluator.hpp"
#include "synth/workloads.hpp"

namespace {

using namespace essns;

struct Row {
  std::string label;
  core::NsGaConfig config;
};

double mean_fitness(const std::vector<ea::Individual>& set) {
  if (set.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& ind : set) sum += ind.fitness;
  return sum / static_cast<double>(set.size());
}

}  // namespace

int main() {
  constexpr int kSeeds = 3;
  constexpr int kGenerations = 30;

  synth::Workload workload = synth::make_plains(48);
  Rng truth_rng(29);
  const synth::GroundTruth truth = synth::generate_ground_truth(
      workload.environment, workload.truth_config, truth_rng);
  ess::ScenarioEvaluator evaluator(workload.environment);
  ess::Observations observations(truth, false);
  evaluator.set_step(observations, 1);
  auto evaluate = evaluator.batch_evaluator();

  core::NsGaConfig base;
  base.population_size = 20;
  base.offspring_count = 20;
  base.novelty_k = 10;

  std::vector<Row> rows;
  {
    Row r{"novelty-ranked (paper baseline)", base};
    rows.push_back(r);
  }
  {
    Row r{"random replacement", base};
    r.config.archive.policy = core::ArchivePolicy::kRandom;
    rows.push_back(r);
  }
  {
    Row r{"threshold admission", base};
    r.config.archive.policy = core::ArchivePolicy::kThreshold;
    r.config.archive.novelty_threshold = 0.02;
    rows.push_back(r);
  }
  {
    Row r{"unbounded (dynamic size)", base};
    r.config.archive.policy = core::ArchivePolicy::kUnbounded;
    rows.push_back(r);
  }
  for (int k : {3, 5, 15, 0}) {
    Row r{k <= 0 ? "k = whole set" : "k = " + std::to_string(k), base};
    r.config.novelty_k = k;
    rows.push_back(r);
  }

  TextTable table("EXP-A archive policy & k ablation (plains OS step, " +
                  std::to_string(kGenerations) + " generations, mean of " +
                  std::to_string(kSeeds) + " seeds)");
  table.set_header({"Variant", "bestSet max", "bestSet mean", "archive size"});

  for (const auto& row : rows) {
    double best = 0.0, mean = 0.0, archive_size = 0.0;
    for (int seed = 0; seed < kSeeds; ++seed) {
      Rng rng(static_cast<std::uint64_t>(seed) * 53 + 3);
      const auto result =
          core::run_ns_ga(row.config, firelib::kParamCount, evaluate,
                          {kGenerations, 0.99}, rng);
      best += result.max_fitness;
      mean += mean_fitness(result.best_set);
      archive_size += static_cast<double>(result.archive.size());
    }
    table.add_row({row.label, TextTable::num(best / kSeeds),
                   TextTable::num(mean / kSeeds),
                   TextTable::num(archive_size / kSeeds, 1)});
  }
  table.print();
  return 0;
}
