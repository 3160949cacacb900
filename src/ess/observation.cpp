#include "ess/observation.hpp"

#include <bit>
#include <utility>

#include "cache/scenario_cache.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace essns::ess {

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

DigestIdentity digest_identity(const synth::Workload& workload,
                               std::uint64_t truth_seed) {
  const synth::GroundTruthConfig& truth = workload.truth_config;
  std::uint64_t config = 0;
  const auto mix = [&config](std::uint64_t word) {
    config = combine_seed(config, word);
  };
  const auto mix_scenario = [&mix](const firelib::Scenario& scenario) {
    for (const std::uint64_t word : cache::make_scenario_key(scenario).params)
      mix(word);
  };
  for (const char c : workload.name) mix(static_cast<unsigned char>(c));
  mix(workload.name.size());
  mix_scenario(truth.hidden);
  mix(std::bit_cast<std::uint64_t>(truth.step_minutes));
  mix(std::bit_cast<std::uint64_t>(truth.drift_sigma));
  mix(std::bit_cast<std::uint64_t>(truth.observation_noise));
  mix(static_cast<std::uint64_t>(truth.ignition.row));
  mix(static_cast<std::uint64_t>(truth.ignition.col));
  for (const firelib::Scenario& scenario : workload.scenario_sequence)
    mix_scenario(scenario);
  mix(workload.scenario_sequence.size());

  DigestIdentity identity;
  identity.workload_seed = workload.seed;
  identity.truth_seed = truth_seed;
  identity.rows = workload.environment.rows();
  identity.cols = workload.environment.cols();
  identity.steps = truth.steps;
  identity.config = config;
  return identity;
}

synth::GroundTruth materialize_truth(const synth::Workload& workload,
                                     std::uint64_t truth_seed) {
  ESSNS_TRACE_SPAN("pipeline.truth");
  obs::add_counter("ess.truth_materializations", 1);
  Rng rng(truth_seed);
  return synth::generate_truth(workload, rng);
}

Observations::Observations(std::shared_ptr<const ObservationDigest> digest,
                           const std::vector<firelib::IgnitionMap>& lines)
    : digest_(std::move(digest)), borrowed_(&lines) {
  ESSNS_REQUIRE(digest_ && digest_->lines.size() == lines.size(),
                "observations need a digest of every line");
}

Observations::Observations(std::shared_ptr<const ObservationDigest> digest,
                           std::vector<firelib::IgnitionMap>&& lines)
    : digest_(std::move(digest)), owned_(std::move(lines)) {
  ESSNS_REQUIRE(digest_ && digest_->lines.size() == owned_->size(),
                "observations need a digest of every line");
}

Observations::Observations(
    std::shared_ptr<const ObservationDigest> digest,
    std::function<std::vector<firelib::IgnitionMap>()> generate)
    : digest_(std::move(digest)), generate_(std::move(generate)) {
  ESSNS_REQUIRE(digest_ && generate_,
                "lazy observations need a digest and a generator");
}

const firelib::IgnitionMap& Observations::line(int k) {
  if (!borrowed_ && !owned_) {
    owned_ = generate_();
    ESSNS_REQUIRE(owned_->size() == digest_->lines.size(),
                  "generated fire lines do not match their digest");
  }
  const firelib::IgnitionMap* dense = dense_line(k);
  ESSNS_REQUIRE(dense != nullptr, "fire line index out of range");
  return *dense;
}

const firelib::IgnitionMap* Observations::dense_line(int k) const {
  const std::vector<firelib::IgnitionMap>* lines =
      borrowed_ ? borrowed_ : (owned_ ? &*owned_ : nullptr);
  if (!lines || k < 0 || static_cast<std::size_t>(k) >= lines->size())
    return nullptr;
  return &(*lines)[static_cast<std::size_t>(k)];
}

}  // namespace essns::ess
