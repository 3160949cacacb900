// Genetic operators on normalized genomes.
//
// The paper's NS-GA uses roulette-wheel selection, conventional crossover and
// mutation, and novelty-elitist replacement; ESS/ESSIM-EA use the same
// operators driven by fitness. All operators keep genes inside [0,1]
// (mutation reflects at the boundaries).
#pragma once

#include <span>

#include "ea/individual.hpp"

namespace essns::ea {

/// Roulette-wheel (fitness-proportionate) selection over `scores`.
/// Scores may be any non-negative values (fitness for GA, novelty for NS-GA);
/// negative scores are shifted so the minimum maps to zero. When all scores
/// are equal the draw is uniform. Returns an index into `scores`.
std::size_t roulette_select(std::span<const double> scores, Rng& rng);

/// Uniform crossover: each gene independently swaps with probability 0.5.
std::pair<Genome, Genome> uniform_crossover(const Genome& a, const Genome& b,
                                            Rng& rng);

/// Per-gene gaussian mutation with probability `rate`; sigma in genome units.
/// Values are reflected back into [0,1] (circular genes are handled at
/// decode time by ScenarioSpace, which wraps instead of clamping).
void gaussian_mutation(Genome& genome, double rate, double sigma, Rng& rng);

/// generateOffspring of the GA and NS-GA: `count` children, bred in pairs
/// from two roulette draws on `scores` (fitness for the GA, novelty for
/// NS-GA), recombined by uniform crossover with probability
/// `crossover_rate`, then gaussian-mutated gene by gene. An odd count drops
/// the last pair's second child.
Population generate_offspring(const Population& parents,
                              std::span<const double> scores,
                              std::size_t count, double crossover_rate,
                              double mutation_rate, double mutation_sigma,
                              Rng& rng);

/// Reflect `value` into [0,1] (handles overshoot of any magnitude).
double reflect_unit(double value);

}  // namespace essns::ea
