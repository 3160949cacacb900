// Cell-contagion fire growth: minimum-travel-time propagation over the
// 8-neighbour lattice (the algorithm of fireLib's FireSpreadStep driver,
// formulated as a single Dijkstra sweep so results are order-independent).
//
// The output is the paper's simulator output: "a map indicating the time
// instant of ignition of each cell". Never-ignited cells hold
// kNeverIgnited (+infinity).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/aligned.hpp"
#include "common/grid.hpp"
#include "common/simd.hpp"
#include "firelib/environment.hpp"
#include "firelib/rothermel.hpp"
#include "firelib/scenario.hpp"

namespace essns::firelib {

/// Ignition-time map in minutes; kNeverIgnited marks unburned cells.
using IgnitionMap = Grid<double>;

inline constexpr double kNeverIgnited = std::numeric_limits<double>::infinity();

/// Binary burned mask of `map` at time `t` (1 = ignited at or before t).
/// `time_min` must be finite: never-ignited cells hold +infinity, and
/// `inf <= inf` would silently count them as burned.
Grid<std::uint8_t> burned_mask(const IgnitionMap& map, double time_min);

/// Number of cells ignited at or before `time_min` (finite, see burned_mask).
std::size_t burned_count(const IgnitionMap& map, double time_min);

/// Priority-queue discipline of the Dijkstra sweep. Both produce
/// bit-identical ignition maps (the sweep's fixed point does not depend on
/// the pop order of equal-time entries); they differ only in cost:
///  - kHeap: binary heap, O(log n) push/pop — the retained baseline;
///  - kDial: bucketed dial/calendar queue over [0, horizon], O(1) bucket
///    scans with per-cell epoch staleness checks — the default.
enum class SweepQueue { kHeap, kDial };

/// Reusable per-thread propagation state: the working ignition-time map, the
/// sweep queue storage (binary heap and dial buckets), and precomputed
/// spread-rate inputs. A workspace amortizes all per-call allocations across
/// simulations — each worker of the batched SimulationService owns one and
/// reuses it for every simulation it runs. Results are bit-identical to
/// workspace-free calls; the only state carried between calls is capacity
/// and two memos of pure functions of their exact keys (the uniform
/// travel-time table and the DEM terrain fields below).
///
/// Hot per-cell state is kept in cache-line-aligned structure-of-arrays
/// slabs (AlignedVector) so the uniform and DEM fast paths walk contiguous
/// aligned memory:
///  - cell_epoch_: per-cell push epoch, the dial queue's staleness check;
///  - slope_ratio_ / upslope_deg_: DEM runs' per-cell slope ratio (tan) and
///    upslope azimuth, filled once per environment topography;
///  - travel_time_: 14x8 per-model directional travel times for uniform
///    topography (arrival = top.time + travel_time_[fuel][k]).
/// Fuel codes are read as a flat slab too, straight from the environment's
/// grid (every Grid buffer is cache-line aligned) — no per-sweep copy.
class PropagationWorkspace {
 public:
  PropagationWorkspace() = default;

  // One live propagation at a time per workspace; not thread-safe.
  PropagationWorkspace(const PropagationWorkspace&) = delete;
  PropagationWorkspace& operator=(const PropagationWorkspace&) = delete;
  PropagationWorkspace(PropagationWorkspace&&) = default;
  PropagationWorkspace& operator=(PropagationWorkspace&&) = default;

  /// Ignition-time map produced by the last propagate() call through this
  /// workspace (valid until the next call).
  const IgnitionMap& last_map() const { return times_; }

  /// Size and write through every slab a rows x cols sweep will touch
  /// (times, epochs, dial buckets and arena, heap, DEM terrain fields), so
  /// the backing pages are committed from the calling thread. NUMA-aware
  /// placement calls this from the pinned owning worker at startup: under
  /// Linux's default first-touch policy all hot memory then lives on the
  /// worker's node. Results are unaffected — every slab is (re-)initialized
  /// by the sweep exactly as if it had grown lazily.
  void prefault(int rows, int cols);

  /// Queue entry types (public so the sweep-queue policies in propagator.cpp
  /// can name them; the storage itself stays private).
  struct HeapEntry {
    double time;
    std::size_t cell;
  };
  /// Dial-queue arena entry: an intrusive singly-linked bucket chain. An
  /// entry is current iff its epoch equals cell_epoch_[cell] — every push
  /// bumps the cell's epoch, so older entries for the cell go stale without
  /// any heap reordering.
  struct DialEntry {
    double time;
    std::uint32_t cell;
    std::uint32_t epoch;
    std::int32_t next;  ///< next entry in the same bucket, -1 terminates
  };

 private:
  friend class FirePropagator;

  IgnitionMap times_;
  // Binary-heap queue storage (SweepQueue::kHeap).
  std::vector<HeapEntry> heap_;
  // Dial queue storage (SweepQueue::kDial): entry arena, per-bucket chain
  // heads, per-batch sort scratch, and the per-cell epoch slab. A completed
  // drain leaves every bucket head at nil and the arena is cleared per
  // sweep, so neither slab is re-initialized on the clean path; dial_dirty_
  // flags an aborted sweep (exception mid-drain) that must re-fill heads.
  std::vector<DialEntry> dial_entries_;
  std::vector<DialEntry> dial_batch_;
  AlignedVector<std::int32_t> bucket_head_;
  /// Occupancy bitmap over bucket_head_ (bit b set = bucket b non-empty),
  /// so drain skips empty buckets 64 at a time instead of probing each.
  AlignedVector<std::uint64_t> bucket_bits_;
  AlignedVector<std::uint32_t> cell_epoch_;
  bool dial_dirty_ = true;
  std::array<FireBehavior, 14> by_model_{};
  std::array<bool, 14> by_model_ready_{};
  /// Travel-time memo key: the exact inputs by_model_/travel_time_ were
  /// built from on the uniform fast path — raw bit patterns of the eight
  /// non-model Table-I params plus the cell size, and the spread model that
  /// computed them. When the next uniform sweep matches bit for bit, the
  /// ready flags survive and already-built rows are reused instead of
  /// rebuilt (tracked-fire re-prediction hits this on every warm sweep).
  /// Exact comparison, not a hash — a collision could silently corrupt maps.
  std::array<std::uint64_t, 9> tt_key_{};
  const FireSpreadModel* tt_model_ = nullptr;
  bool tt_valid_ = false;
  /// travel_time_[model][k]: minutes to cross to 8-neighbour k for uniform
  /// topography (kNeverIgnited when the model does not spread that way).
  /// Cache-line aligned so each 64-byte row feeds the AVX2 relax kernel's
  /// aligned loads (relax_kernel.hpp relies on this).
  alignas(kCacheLineBytes) std::array<std::array<double, 8>, 14>
      travel_time_{};
  /// DEM runs: per-cell slope ratio and upslope azimuth (the WindSlope
  /// terrain inputs), valid for the environment whose topography_id() is
  /// terrain_id_ (0 = not filled). Topography never changes under an id, so
  /// the slabs are filled once per environment, not once per sweep.
  AlignedVector<double> slope_ratio_;
  AlignedVector<double> upslope_deg_;
  std::uint64_t terrain_id_ = 0;
};

class FirePropagator {
 public:
  explicit FirePropagator(const FireSpreadModel& model);

  /// Spread from point ignitions (ignited at t = 0) until `horizon_min`.
  IgnitionMap propagate(const FireEnvironment& env, const Scenario& scenario,
                        const std::vector<CellIndex>& ignitions,
                        double horizon_min) const;

  /// Spread continuing from an existing ignition-time map: every finite cell
  /// of `initial` is a source with its recorded time. This is how a
  /// prediction step simulates forward from the real fire line RFL(t-1).
  /// Horizon-clamp contract: finite initial times greater than `horizon_min`
  /// are reported as kNeverIgnited in the output, exactly like cells the
  /// sweep reaches beyond the horizon.
  IgnitionMap propagate(const FireEnvironment& env, const Scenario& scenario,
                        const IgnitionMap& initial, double horizon_min) const;

  /// Allocation-free variants: compute into `workspace` and return a
  /// reference to its map (valid until the workspace is reused). Fitness
  /// evaluation reads the map in place; batch simulation copies it out.
  const IgnitionMap& propagate(const FireEnvironment& env,
                               const Scenario& scenario,
                               const std::vector<CellIndex>& ignitions,
                               double horizon_min,
                               PropagationWorkspace& workspace) const;
  const IgnitionMap& propagate(const FireEnvironment& env,
                               const Scenario& scenario,
                               const IgnitionMap& initial, double horizon_min,
                               PropagationWorkspace& workspace) const;

  /// When true, the sweep runs the pre-optimization reference inner loop
  /// (behavior + spread-rate trig per popped cell) instead of the
  /// precomputed-field fast path. The two are bit-identical — the reference
  /// path exists so equivalence tests and bench_hotpath can prove it.
  void set_reference_sweep(bool reference) { reference_sweep_ = reference; }
  bool reference_sweep() const { return reference_sweep_; }

  /// Select the sweep's priority-queue discipline (default kDial). Both
  /// queues are bit-identical on every path (reference / uniform / DEM);
  /// the knob exists so equivalence tests and bench_sweep can measure both.
  void set_sweep_queue(SweepQueue queue) { queue_ = queue; }
  SweepQueue sweep_queue() const { return queue_; }

  /// Select the relax kernel (default simd::Mode::kAuto): the
  /// uniform-topography inner loop runs the AVX2 8-lane kernel when the
  /// mode resolves to it, the scalar oracle otherwise. Bit-identical either
  /// way (relax_kernel.hpp); requesting avx2 on a host without it falls
  /// back to scalar. The reference sweep and the DEM path (per-direction
  /// elliptical trig, not table lookups) always run scalar.
  void set_simd_mode(simd::Mode mode) {
    simd_mode_ = mode;
    simd_isa_ = simd::resolve(mode);
  }
  simd::Mode simd_mode() const { return simd_mode_; }
  /// What the mode resolved to on this host (runtime dispatch result).
  simd::Isa simd_isa() const { return simd_isa_; }

 private:
  /// Dijkstra sweep over workspace.times_ (already seeded with source times).
  void run_sweep(const FireEnvironment& env, const Scenario& scenario,
                 double horizon_min, PropagationWorkspace& workspace) const;

  const FireSpreadModel* model_;
  bool reference_sweep_ = false;
  SweepQueue queue_ = SweepQueue::kDial;
  simd::Mode simd_mode_ = simd::Mode::kAuto;
  simd::Isa simd_isa_ = simd::resolve(simd::Mode::kAuto);
};

}  // namespace essns::firelib
