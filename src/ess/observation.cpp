#include "ess/observation.hpp"

#include <utility>

#include "cache/scenario_cache.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace essns::ess {
namespace {

ObservationDigest make_observation_digest(const synth::GroundTruth& truth,
                                          bool fingerprints) {
  ObservationDigest digest;
  digest.fingerprinted = fingerprints;
  const int steps = truth.steps();
  ESSNS_REQUIRE(steps >= 0, "a ground truth needs at least its outbreak line");
  digest.times.reserve(static_cast<std::size_t>(steps) + 1);
  digest.lines.reserve(static_cast<std::size_t>(steps) + 1);
  for (int k = 0; k <= steps; ++k) {
    const firelib::IgnitionMap& map =
        truth.fire_lines[static_cast<std::size_t>(k)];
    const double t = truth.time_of(k);
    ObservedLine line;
    if (fingerprints) line.fingerprint = cache::map_fingerprint(map);
    if (k == 0)
      line.scoring.real = firelib::burned_cells(map, t);
    else
      line.scoring = make_scoring_target(map, truth.time_of(k - 1), t);
    digest.times.push_back(t);
    digest.lines.push_back(std::move(line));
  }
  return digest;
}

}  // namespace

synth::GroundTruth materialize_truth(const synth::Workload& workload,
                                     std::uint64_t truth_seed) {
  ESSNS_TRACE_SPAN("pipeline.truth");
  obs::add_counter("ess.truth_materializations", 1);
  Rng rng(truth_seed);
  return synth::generate_truth(workload, rng);
}

Observations::Observations(const synth::GroundTruth& truth,
                           bool fingerprints)
    : digest_(make_observation_digest(truth, fingerprints)) {}

}  // namespace essns::ess
