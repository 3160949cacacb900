// Novelty scoring — Eq. (1) and (2) of the paper.
//
// rho(x) = (1/k) * sum_{i=0}^{k-1} dist(x, mu_i)         (1)
// with mu_i the i-th nearest neighbour of x in the reference set (current
// population + offspring + archive), and the paper's behaviour distance
// dist(x, mu) = fitness(x) - fitness(mu)                  (2)
// taken in absolute value (a distance must be symmetric and non-negative;
// the signed form in the paper is a typo — a k-NN search under a signed
// "distance" would simply pick the worst-fitness individuals).
//
// Because Eq. (2) is one-dimensional, the k nearest neighbours of x are a
// contiguous window of the sorted reference fitnesses; evaluate_novelty
// scores that way. The generic k-NN scorer it must reproduce bit for bit is
// the test oracle tests/core/novelty_oracle.hpp.
#pragma once

#include <span>

#include "ea/individual.hpp"

namespace essns::core {

/// Eq. (2): |fitness(x) - fitness(mu)| — the paper's distance.
double fitness_distance(const ea::Individual& a, const ea::Individual& b);

/// Eq. (1) for every individual of `pop` against `reference` (Algorithm 1,
/// lines 12-14), writing Individual::novelty in place. Every individual
/// involved must be evaluated.
///
/// Like evaluateNovelty in Algorithm 1, whose noveltySet contains the
/// individual being scored, exactly one self occurrence is skipped: by
/// address when x lives inside `reference`, else the first reference with
/// x's fitness and genome. k is clamped to the available neighbour count;
/// k <= 0 selects the whole-reference-set variant of §II-C ("the entire
/// population can also be used").
///
/// Reference fitnesses are sorted once and each individual is scored with a
/// two-pointer k-window: O((N+R)·log R) in all.
void evaluate_novelty(std::span<ea::Individual> pop,
                      std::span<const ea::Individual> reference, int k);

}  // namespace essns::core
