// Observation digest: what the prediction pipeline reads of the observed
// fire lines (RFL_k), without the lines themselves.
//
// Every stage asks one of three things of a fire line: its content
// fingerprint (shared-cache key material), the cells it had burned by its
// own instant t_k (the Calibration Stage's target, the quality score's, and
// the preburned set of the next interval), or the cells it had burned by
// t_{k-1} (the preburned set of Eq. (3) over [t_{k-1}, t_k]). An
// ObservationDigest holds exactly that per line — about 1 KiB at 64x64
// against 32 KiB of f64 map — and is immutable once built.
//
// The dense lines matter only where a simulation starts from one.
// Observations pairs a digest with them, borrowed from a ground truth the
// caller generated or owned.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "ess/fitness.hpp"
#include "synth/workloads.hpp"

namespace essns::ess {

/// One observed fire line RFL_k as the pipeline reads it.
struct ObservedLine {
  /// cache::map_fingerprint of the dense line; 0 unless the digest is
  /// fingerprinted.
  std::uint64_t fingerprint = 0;
  /// Eq. (3)'s real-fire side over [t_{k-1}, t_k]: `real` holds the cells
  /// burned by t_k, `preburned` those burned by t_{k-1} (empty for k = 0).
  ScoringTarget scoring;
};

struct ObservationDigest {
  /// Whether lines carry fingerprints (needed by the shared cache only).
  bool fingerprinted = false;
  std::vector<double> times;  ///< t_k of each line
  std::vector<ObservedLine> lines;

  int steps() const { return static_cast<int>(lines.size()) - 1; }
};

/// Digest of a ground truth's lines at their instants. Fingerprints are
/// computed only when asked for: the step cache never needs them.
ObservationDigest make_observation_digest(const synth::GroundTruth& truth,
                                          bool fingerprints);

/// Generate the ground truth of a job (synth::generate_truth seeded with
/// `truth_seed`), recorded as the `pipeline.truth` span and counted in
/// `ess.truth_materializations`.
synth::GroundTruth materialize_truth(const synth::Workload& workload,
                                     std::uint64_t truth_seed);

/// A digest together with the dense lines behind it.
class Observations {
 public:
  /// Lines the caller keeps alive (e.g. a generated ground truth's).
  Observations(std::shared_ptr<const ObservationDigest> digest,
               const std::vector<firelib::IgnitionMap>& lines);
  /// Lines this object owns.
  Observations(std::shared_ptr<const ObservationDigest> digest,
               std::vector<firelib::IgnitionMap>&& lines);

  const ObservationDigest& digest() const { return *digest_; }
  const std::shared_ptr<const ObservationDigest>& shared_digest() const {
    return digest_;
  }

  /// Dense line k.
  const firelib::IgnitionMap& line(int k) const;

 private:
  std::shared_ptr<const ObservationDigest> digest_;
  const std::vector<firelib::IgnitionMap>* borrowed_ = nullptr;
  std::optional<std::vector<firelib::IgnitionMap>> owned_;
};

}  // namespace essns::ess
