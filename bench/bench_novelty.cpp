// EXP-B2 — novelty-score micro-benchmarks: cost of Eq. (1) as the reference
// set (population + offspring + archive) and the neighbourhood size k grow.
// The neighbour search (a sort of the reference fitnesses plus a k-window
// per individual) is the only super-linear term NS adds over a plain GA, so
// this bounds the overhead of the paradigm switch.
#include <benchmark/benchmark.h>

#include "core/archive.hpp"
#include "core/novelty.hpp"

namespace {

using namespace essns;

std::vector<ea::Individual> random_set(std::size_t n, std::size_t dim,
                                       Rng& rng) {
  std::vector<ea::Individual> out(n);
  for (auto& ind : out) {
    ind.genome.resize(dim);
    for (double& g : ind.genome) g = rng.uniform();
    ind.fitness = rng.uniform();
    ind.novelty = rng.uniform();
  }
  return out;
}

void BM_NoveltyScoreOneIndividual(benchmark::State& state) {
  Rng rng(1);
  const auto reference =
      random_set(static_cast<std::size_t>(state.range(0)), 9, rng);
  auto subject = random_set(1, 9, rng);
  const int k = static_cast<int>(state.range(1));
  for (auto _ : state) {
    core::evaluate_novelty(subject, reference, k);
    benchmark::DoNotOptimize(subject);
  }
}
BENCHMARK(BM_NoveltyScoreOneIndividual)
    ->Args({64, 10})
    ->Args({256, 10})
    ->Args({1024, 10})
    ->Args({256, 3})
    ->Args({256, 50})
    ->Args({256, 0});  // whole-set variant

void BM_EvaluateNoveltyWholePopulation(benchmark::State& state) {
  // The full lines-12-14 loop of Algorithm 1 for one generation.
  Rng rng(3);
  const std::size_t pop_size = static_cast<std::size_t>(state.range(0));
  auto population = random_set(pop_size, 9, rng);
  const auto reference = random_set(pop_size * 2 + 64, 9, rng);
  for (auto _ : state) {
    core::evaluate_novelty(population, reference, 10);
    benchmark::DoNotOptimize(population);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(pop_size));
}
BENCHMARK(BM_EvaluateNoveltyWholePopulation)->Arg(32)->Arg(64)->Arg(128);

void BM_ArchiveUpdateNoveltyRanked(benchmark::State& state) {
  Rng rng(4);
  const auto offspring = random_set(32, 9, rng);
  for (auto _ : state) {
    state.PauseTiming();
    core::NoveltyArchive archive(
        {core::ArchivePolicy::kNoveltyRanked,
         static_cast<std::size_t>(state.range(0)), 0.0});
    // Pre-fill to capacity so every update exercises replacement.
    while (archive.size() < archive.config().capacity)
      archive.update(offspring);
    state.ResumeTiming();
    archive.update(offspring);
    benchmark::DoNotOptimize(archive);
  }
}
BENCHMARK(BM_ArchiveUpdateNoveltyRanked)->Arg(64)->Arg(512);

void BM_BestSetUpdate(benchmark::State& state) {
  Rng rng(5);
  const auto candidates = random_set(32, 9, rng);
  for (auto _ : state) {
    state.PauseTiming();
    core::BestSet best(32);
    state.ResumeTiming();
    best.update(candidates);
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_BestSetUpdate);

}  // namespace

BENCHMARK_MAIN();
