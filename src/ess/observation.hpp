// Observation digest: what the prediction pipeline reads of the observed
// fire lines (RFL_k), without the lines themselves.
//
// An observer of a fire line sees which cells had burned by its instant
// t_k, not when each of them ignited. Every stage asks one of three things
// of a line: its content fingerprint (shared-cache key material), the cells
// it had burned by t_k (the Calibration Stage's target, the quality
// score's, the preburned set of the next interval, and the start of every
// simulation from the line), or the cells it had burned by t_{k-1} (the
// preburned set of Eq. (3) over [t_{k-1}, t_k]). An ObservationDigest holds
// exactly that per line — about 1 KiB at 64x64 against 32 KiB of f64 map —
// and is immutable once built.
//
// A simulation from line k starts from the region it had burned, every cell
// at t_k (firelib::burned_region of `scoring.real` at `times[k]`). The
// ground truth's lines hold no finite time past their instant, so that map
// is the dense line with every finite cell set to t_k: the truth's hidden
// arrival times never reach the predictor.
//
// Observations owns a digest. It is the only way fire lines reach the
// simulation layer (SimulationService, ScenarioEvaluator), which keys each
// batch's context by the Observations object and a line index.
#pragma once

#include <cstdint>
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

/// Generate the ground truth of a job (synth::generate_truth seeded with
/// `truth_seed`), recorded as the `pipeline.truth` span and counted in
/// `ess.truth_materializations`.
synth::GroundTruth materialize_truth(const synth::Workload& workload,
                                     std::uint64_t truth_seed);

/// The digest of one ground truth's fire lines.
class Observations {
 public:
  /// Digest `truth`'s lines at their instants. Fingerprints are computed
  /// only when asked for: the shared cache needs them, the step cache never
  /// does.
  Observations(const synth::GroundTruth& truth, bool fingerprints);

  const ObservationDigest& digest() const { return digest_; }

 private:
  ObservationDigest digest_;
};

}  // namespace essns::ess
