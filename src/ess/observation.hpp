// Observation digest: what the prediction pipeline reads of the observed
// fire lines (RFL_k), without the lines themselves.
//
// Every stage asks one of three things of a fire line: its content
// fingerprint (shared-cache key material), the cells it had burned by its
// own instant t_k (the Calibration Stage's target, the quality score's, and
// the preburned set of the next interval), or the cells it had burned by
// t_{k-1} (the preburned set of Eq. (3) over [t_{k-1}, t_k]). An
// ObservationDigest holds exactly that per line — about 1 KiB at 64x64
// against 32 KiB of f64 map — and is immutable once built, so a server can
// keep one per tracked fire and hand it to every refresh at that horizon.
//
// The dense lines matter only where a simulation starts from one.
// Observations pairs a digest with them: borrowed from a ground truth the
// caller generated, owned, or generated on first use (on the master
// thread, when a batch first has to simulate). So a refresh the cache
// answers in full never synthesizes its fire.
#pragma once

#include <cstdint>
#include <functional>
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

/// The job a digest was built for. A digest is trusted only by a job whose
/// identity equals it; any other job generates its own truth.
struct DigestIdentity {
  std::uint64_t workload_seed = 0;
  std::uint64_t truth_seed = 0;
  int rows = 0;
  int cols = 0;
  int steps = 0;
  /// Fingerprint of everything else the truth is generated from: the
  /// workload's name, its ground-truth configuration and per-step
  /// scenarios.
  std::uint64_t config = 0;

  friend bool operator==(const DigestIdentity&,
                         const DigestIdentity&) = default;
};

struct ObservationDigest {
  /// Set for a job's truth (service::run_prediction_job); unset for lines
  /// that belong to no job.
  std::optional<DigestIdentity> identity;
  /// cache::environment_fingerprint of the job's terrain, when known.
  std::optional<std::uint64_t> env_fingerprint;
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

/// The identity of job truth `truth_seed` of `workload` (cheap: hashes the
/// configuration, not the terrain).
DigestIdentity digest_identity(const synth::Workload& workload,
                               std::uint64_t truth_seed);

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
  /// Lines generated by `generate` on the first call to line().
  Observations(
      std::shared_ptr<const ObservationDigest> digest,
      std::function<std::vector<firelib::IgnitionMap>()> generate);

  const ObservationDigest& digest() const { return *digest_; }
  const std::shared_ptr<const ObservationDigest>& shared_digest() const {
    return digest_;
  }

  /// Dense line k, generated first if need be. Not thread-safe: callers
  /// use it from the thread that plans batches.
  const firelib::IgnitionMap& line(int k);
  /// Dense line k, or nullptr while the lines are not generated.
  const firelib::IgnitionMap* dense_line(int k) const;

 private:
  std::shared_ptr<const ObservationDigest> digest_;
  const std::vector<firelib::IgnitionMap>* borrowed_ = nullptr;
  std::optional<std::vector<firelib::IgnitionMap>> owned_;
  std::function<std::vector<firelib::IgnitionMap>()> generate_;
};

}  // namespace essns::ess
