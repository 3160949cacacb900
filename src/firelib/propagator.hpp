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

/// Cells of one rows x cols map burned by a horizon, packed 64 to a word in
/// row-major order: bit (i % 64) of word (i / 64) is cell i, and the bits
/// past the last cell are zero. This is all Eq. (3) and the Statistical
/// Stage ever ask of a simulation, at 1/64 of the ignition map's bytes.
struct BurnedCells {
  int rows = 0;
  int cols = 0;
  std::vector<std::uint64_t> words;

  bool empty() const { return words.empty(); }
  friend bool operator==(const BurnedCells&, const BurnedCells&) = default;
};

/// Words a BurnedCells of `cells` cells holds.
inline std::size_t burned_words(std::size_t cells) { return (cells + 63) / 64; }

/// Pack the cells of `map` ignited at or before `time_min` (the same `<=`
/// test as burned_mask). The sweep emits its own record at no extra pass;
/// this builds the real-fire side of Eq. (3) once per interval.
BurnedCells burned_cells(const IgnitionMap& map, double time_min);

/// Pack the nonzero cells of a burned mask (e.g. a thresholded prediction).
BurnedCells burned_cells(const Grid<std::uint8_t>& mask);

/// The map of a fire known only by the cells it had burned at one instant,
/// as an observed fire line is: `time_min` on every cell of `burned`,
/// kNeverIgnited elsewhere. A prediction step continues from this map, not
/// from the arrival times behind the observation.
IgnitionMap burned_region(const BurnedCells& burned, double time_min);

/// The start cells of a continuation sweep from one ignition map to one
/// horizon, as row-major linear indices. Of the finite start times at or
/// before the horizon, `settled` holds those whose in-bounds neighbours are
/// all at or before the cell's own time (it has no neighbour left to
/// improve: the sweep marks it burned and never queues it) and `seeds` the
/// rest (the cells the sweep may queue). `late` holds the finite ones after
/// the horizon (reported never ignited unless the sweep lowers them to the
/// horizon or below). Every simulation of a batch continues from the same
/// map to the same horizon, so a caller builds this once and hands it to
/// every sweep instead of each sweep scanning the map.
struct StartCells {
  int rows = 0;
  int cols = 0;
  double horizon_min = 0.0;
  std::vector<std::uint32_t> seeds;
  std::vector<std::uint32_t> settled;
  std::vector<std::uint32_t> late;
};

/// Start cells of `map` for a sweep to `horizon_min`. Throws InvalidArgument
/// on a negative or NaN horizon, a negative start time, or a map over 2^30
/// cells.
StartCells start_cells(const IgnitionMap& map, double horizon_min);

/// Reusable per-thread propagation state: the working ignition-time map, the
/// sweep's dial-queue storage, and precomputed spread-rate inputs. A
/// workspace amortizes all per-call allocations across simulations — each
/// worker of the batched SimulationService owns one and reuses it for every
/// simulation it runs. Results are bit-identical to workspace-free calls;
/// the only state carried between calls is capacity and two memos of pure
/// functions of their exact keys (the uniform travel-time table and the DEM
/// terrain fields below).
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

  /// Cells the last propagate() call burned by its horizon, recorded by the
  /// sweep itself as it popped them (or, for a start cell it left out of
  /// the queue, as it seeded): equal to burned_cells(last_map(),
  /// horizon_min), without that pass.
  const BurnedCells& last_burned() const { return burned_; }

  /// Dial-queue arena entry (public so the queue in propagator.cpp can name
  /// it; the storage itself stays private): an intrusive singly-linked
  /// bucket chain. An entry is current iff its epoch equals
  /// cell_epoch_[cell] — every push bumps the cell's epoch, so older entries
  /// for the cell go stale without any queue surgery.
  struct DialEntry {
    double time;
    std::uint32_t cell;
    std::uint32_t epoch;
    std::int32_t next;  ///< next entry in the same bucket, -1 terminates
  };

 private:
  friend class FirePropagator;

  IgnitionMap times_;
  BurnedCells burned_;
  // Dial queue storage: entry arena, per-bucket chain heads, per-batch sort
  // scratch, and the per-cell epoch slab. A completed drain leaves every
  // bucket head at nil and the arena is cleared per sweep, so neither slab
  // is re-initialized on the clean path; dial_dirty_ flags an aborted sweep
  // (exception mid-drain) that must re-fill heads.
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
  /// of `initial` is a source with its recorded time. A prediction step
  /// continues from the observed fire line RFL_k as the region it had
  /// burned by t_k, every cell at t_k (burned_region), so its sweep starts
  /// at t_k from the line's front. Horizon-clamp contract: finite initial
  /// times greater than `horizon_min` are reported as kNeverIgnited in the
  /// output, exactly like cells the sweep reaches beyond the horizon. A
  /// start cell whose neighbours are all at or before its own time (the
  /// burned interior of a flat line) is never queued (StartCells::settled).
  /// Of the rest, on uniform topography only those that can still improve a
  /// neighbour enter the queue; the DEM path queues them all, and rules out
  /// most of their relaxations with a travel-time floor (TravelTimeFloor)
  /// before it pays for the exact spread rate.
  IgnitionMap propagate(const FireEnvironment& env, const Scenario& scenario,
                        const IgnitionMap& initial, double horizon_min) const;

  /// Allocation-free variants: compute into `workspace` and return a
  /// reference to its map (valid until the workspace is reused). The
  /// workspace also holds the sweep's burned-cell record (last_burned()),
  /// which is what batch simulation hands on.
  const IgnitionMap& propagate(const FireEnvironment& env,
                               const Scenario& scenario,
                               const std::vector<CellIndex>& ignitions,
                               double horizon_min,
                               PropagationWorkspace& workspace) const;
  const IgnitionMap& propagate(const FireEnvironment& env,
                               const Scenario& scenario,
                               const IgnitionMap& initial, double horizon_min,
                               PropagationWorkspace& workspace) const;
  /// Same, to starts.horizon_min, seeded from `starts`, which must be
  /// start_cells(initial, starts.horizon_min) (only its shape is checked):
  /// the form a batch of sweeps from one map to one horizon shares.
  const IgnitionMap& propagate(const FireEnvironment& env,
                               const Scenario& scenario,
                               const IgnitionMap& initial,
                               const StartCells& starts,
                               PropagationWorkspace& workspace) const;

  /// Select the relax kernel (default simd::Mode::kAuto): the
  /// uniform-topography inner loop runs the AVX2 8-lane kernel when the
  /// mode resolves to it, the scalar oracle otherwise. Bit-identical either
  /// way (relax_kernel.hpp); `auto` resolves to scalar on a host without
  /// AVX2+FMA. The DEM path (per-pop wind/slope composition, then a
  /// travel-time floor per neighbour before the exact elliptical rate, not
  /// table lookups) always runs scalar.
  void set_simd_mode(simd::Mode mode) { simd_isa_ = simd::resolve(mode); }
  /// What the mode resolved to on this host (runtime dispatch result).
  simd::Isa simd_isa() const { return simd_isa_; }

 private:
  /// Dijkstra sweep over workspace.times_, which holds the start map whose
  /// start cells are `starts`.
  void run_sweep(const FireEnvironment& env, const Scenario& scenario,
                 const StartCells& starts,
                 PropagationWorkspace& workspace) const;

  const FireSpreadModel* model_;
  simd::Isa simd_isa_ = simd::resolve(simd::Mode::kAuto);
};

}  // namespace essns::firelib
