#include "firelib/propagator.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/units.hpp"
#include "firelib/relax_kernel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace essns::firelib {
namespace {

/// Per-sweep event tallies, accumulated in plain stack integers on the hot
/// path and flushed to the metrics registry once per sweep (never per cell).
/// `stale_pops` counts entries skipped on an epoch mismatch (superseded by a
/// later push of the same cell), and `bucket_redrains` counts the extra
/// chain detaches when a relaxation lands an arrival back into the bucket
/// being drained.
struct SweepCounters {
  std::uint64_t popped = 0;
  std::uint64_t pushes = 0;
  std::uint64_t stale_pops = 0;
  std::uint64_t bucket_redrains = 0;
  /// Start cells left out of the queue because they could improve no
  /// neighbour (the uniform path's seed pruning).
  std::uint64_t seeds_pruned = 0;
  /// Travel-time table rows actually (re)built by the uniform fast path —
  /// zero on a warm repeat-scenario sweep thanks to the workspace memo.
  std::uint64_t tt_rows_built = 0;
};

/// The exact Table-I inputs the uniform travel-time table is a function of:
/// raw bit patterns of the eight non-model params plus the cell size. The
/// fuel model is NOT part of the key — it selects a row, and rows stay
/// lazily built per model under the memo exactly as within one sweep.
std::array<std::uint64_t, 9> travel_table_key(const Scenario& s,
                                              double cell_ft) {
  return {std::bit_cast<std::uint64_t>(s.wind_speed),
          std::bit_cast<std::uint64_t>(s.wind_dir),
          std::bit_cast<std::uint64_t>(s.m1),
          std::bit_cast<std::uint64_t>(s.m10),
          std::bit_cast<std::uint64_t>(s.m100),
          std::bit_cast<std::uint64_t>(s.mherb),
          std::bit_cast<std::uint64_t>(s.slope),
          std::bit_cast<std::uint64_t>(s.aspect),
          std::bit_cast<std::uint64_t>(cell_ft)};
}

// Azimuth (degrees clockwise from north) from a cell toward neighbour k of
// kEightNeighbours, with row 0 being the north edge.
constexpr std::array<double, 8> kNeighbourAzimuth = {
    0.0, 45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0};

constexpr double kSqrt2 = 1.41421356237309504880;

constexpr std::int32_t kNilEntry = -1;

/// The sweep's priority queue: a bucketed dial/calendar queue over
/// [0, horizon]. The sweep's result is the unique fixed point of
/// t(v) = min over neighbours u of (t(u) + travel(u, v)), so the queue
/// decides only the cost, never the map. Pushes append to a bucket's
/// intrusive chain in O(1); pops scan buckets in time order, sorting each
/// detached chain by (time, cell) so ties break deterministically.
/// Staleness is a per-cell epoch check: every push bumps the cell's epoch, so
/// superseded entries are skipped without any queue surgery. An arrival can
/// land in the bucket currently being drained (travel time smaller than the
/// bucket width); the drain loop re-detaches the chain until the bucket is
/// dry, which is what makes coarse buckets exact rather than approximate.
class DialQueue {
 public:
  using Entry = PropagationWorkspace::DialEntry;

  DialQueue(std::vector<Entry>& entries, std::vector<Entry>& batch,
            AlignedVector<std::int32_t>& heads,
            AlignedVector<std::uint64_t>& words,
            AlignedVector<std::uint32_t>& epochs, bool& dirty,
            double horizon_min, std::size_t cells, SweepCounters& counters)
      : entries_(entries), batch_(batch), heads_(heads), words_(words),
        epochs_(epochs), dirty_(dirty), counters_(counters) {
    num_buckets_ = std::clamp<std::size_t>(cells, 64, std::size_t{1} << 16);
    // Bucket width horizon / num_buckets_; a zero or infinite horizon —
    // or one so tiny the reciprocal width overflows (0 * inf in bucket_of
    // would be NaN and casting NaN is UB) — degenerates to a single bucket
    // (inv_width_ = 0), which stays exact — just without the calendar's
    // ordering help.
    const double inv_width =
        static_cast<double>(num_buckets_) / horizon_min;  // inf when 0
    inv_width_ =
        (horizon_min > 0.0 && std::isfinite(inv_width)) ? inv_width : 0.0;
    // A completed drain leaves every chain head at kNilEntry and every
    // occupancy bit clear, so the slabs only need (re-)initializing on first
    // use, growth, or after an aborted sweep — not per sweep.
    num_words_ = (num_buckets_ + 63) / 64;
    const bool grew =
        heads_.size() < num_buckets_ || words_.size() < num_words_;
    if (grew) {
      heads_.resize(num_buckets_);
      words_.resize(num_words_);
    }
    if (dirty_ || grew) {
      std::fill(heads_.begin(), heads_.end(), kNilEntry);
      std::fill(words_.begin(), words_.end(), 0);
    }
    dirty_ = true;  // until drain() completes
    entries_.clear();
    // In steady state every cell contributes at most a handful of entries;
    // map-size capacity absorbs the common case without regrowth.
    if (entries_.capacity() < cells) entries_.reserve(cells);
    // Epochs never need clearing: entries do not survive a sweep, so
    // staleness only ever compares pushes from the same sweep. Arbitrary
    // carried-over values are a valid starting point.
    if (epochs_.size() != cells) epochs_.assign(cells, 0);
    batch_.clear();
  }

  void push(double time, std::size_t cell) {
    // Callers push only times at or before the horizon: relaxation guards
    // arrival <= horizon, and seeding skips later start times.
    // The intrusive chains index the arena with int32; entries cannot be
    // allowed past that (run_sweep's cell-count limit makes this
    // unreachable in practice — it would take a ~48 GB arena).
    ESSNS_REQUIRE(entries_.size() <
                      static_cast<std::size_t>(
                          std::numeric_limits<std::int32_t>::max()),
                  "dial queue entry arena exceeds int32 indexing");
    const std::size_t bucket = bucket_of(time);
    const std::uint32_t epoch = ++epochs_[cell];
    entries_.push_back(Entry{time, static_cast<std::uint32_t>(cell), epoch,
                             heads_[bucket]});
    heads_[bucket] = static_cast<std::int32_t>(entries_.size()) - 1;
    words_[bucket >> 6] |= std::uint64_t{1} << (bucket & 63);
    ++counters_.pushes;
  }

  template <typename Relax>
  void drain(Relax&& relax) {
    // Walk occupied buckets in ascending index via the bitmap. Relaxations
    // only ever push forward in time (equal at worst), so once a word's bits
    // are exhausted nothing can reappear below the cursor; re-reading the
    // word picks up same-word pushes, the inner while picks up same-bucket
    // ones.
    for (std::size_t w = 0; w < num_words_; ++w) {
      while (words_[w] != 0) {
        const std::size_t b =
            (w << 6) + static_cast<std::size_t>(std::countr_zero(words_[w]));
        drain_bucket(b, relax);
        words_[w] &= words_[w] - 1;  // clear the lowest set bit (bucket b)
      }
    }
    dirty_ = false;  // every bucket verified empty; skip the next re-fill
  }

 private:
  template <typename Relax>
  void drain_bucket(std::size_t b, Relax& relax) {
    bool first_pass = true;
    while (heads_[b] != kNilEntry) {
      if (!first_pass) ++counters_.bucket_redrains;
      first_pass = false;
      const std::int32_t head = heads_[b];
      // With ~1 bucket per cell most chains are singletons; relax those
      // without the batch copy and sort.
      if (entries_[static_cast<std::size_t>(head)].next == kNilEntry) {
        heads_[b] = kNilEntry;
        const Entry entry = entries_[static_cast<std::size_t>(head)];
        if (entry.epoch == epochs_[entry.cell]) {
          ++counters_.popped;
          relax(entry.time, static_cast<std::size_t>(entry.cell), *this);
        } else {
          ++counters_.stale_pops;
        }
        continue;
      }
      batch_.clear();
      for (std::int32_t i = head; i != kNilEntry;
           i = entries_[static_cast<std::size_t>(i)].next)
        batch_.push_back(entries_[static_cast<std::size_t>(i)]);
      heads_[b] = kNilEntry;
      // Deterministic tie-break inside the bucket: (time, cell) ascending.
      // (time, cell) pairs are unique — a cell is only re-pushed on a
      // strict time decrease — so the order is total.
      std::sort(batch_.begin(), batch_.end(),
                [](const Entry& x, const Entry& y) {
                  return x.time != y.time ? x.time < y.time : x.cell < y.cell;
                });
      for (const Entry& entry : batch_) {
        if (entry.epoch != epochs_[entry.cell]) {  // stale entry
          ++counters_.stale_pops;
          continue;
        }
        ++counters_.popped;
        relax(entry.time, static_cast<std::size_t>(entry.cell), *this);
      }
    }
  }

  std::size_t bucket_of(double time) const {
    const double scaled = time * inv_width_;
    if (scaled >= static_cast<double>(num_buckets_)) return num_buckets_ - 1;
    return static_cast<std::size_t>(scaled);
  }

  std::vector<Entry>& entries_;
  std::vector<Entry>& batch_;
  AlignedVector<std::int32_t>& heads_;
  AlignedVector<std::uint64_t>& words_;
  AlignedVector<std::uint32_t>& epochs_;
  bool& dirty_;
  SweepCounters& counters_;
  double inv_width_ = 0.0;
  std::size_t num_buckets_ = 1;
  std::size_t num_words_ = 1;
};

}  // namespace

Grid<std::uint8_t> burned_mask(const IgnitionMap& map, double time_min) {
  ESSNS_REQUIRE(std::isfinite(time_min),
                "burned query time must be finite (never-ignited cells hold "
                "+inf and would count as burned)");
  Grid<std::uint8_t> mask(map.rows(), map.cols(), 0);
  for (int r = 0; r < map.rows(); ++r)
    for (int c = 0; c < map.cols(); ++c)
      mask(r, c) = map(r, c) <= time_min ? 1 : 0;
  return mask;
}

std::size_t burned_count(const IgnitionMap& map, double time_min) {
  ESSNS_REQUIRE(std::isfinite(time_min),
                "burned query time must be finite (never-ignited cells hold "
                "+inf and would count as burned)");
  std::size_t count = 0;
  const double* t = map.data();
  const std::size_t n = map.size();
  for (std::size_t i = 0; i < n; ++i) count += t[i] <= time_min;
  return count;
}

BurnedCells burned_cells(const IgnitionMap& map, double time_min) {
  ESSNS_REQUIRE(std::isfinite(time_min),
                "burned query time must be finite (never-ignited cells hold "
                "+inf and would count as burned)");
  const std::size_t n = map.size();
  BurnedCells burned{map.rows(), map.cols(),
                     std::vector<std::uint64_t>(burned_words(n), 0)};
  const double* times = map.data();
  for (std::size_t w = 0; w < burned.words.size(); ++w) {
    const std::size_t base = w * 64;
    const std::size_t end = std::min<std::size_t>(64, n - base);
    std::uint64_t word = 0;
    for (std::size_t j = 0; j < end; ++j)
      word |= static_cast<std::uint64_t>(times[base + j] <= time_min) << j;
    burned.words[w] = word;
  }
  return burned;
}

BurnedCells burned_cells(const Grid<std::uint8_t>& mask) {
  const std::size_t n = mask.size();
  BurnedCells burned{mask.rows(), mask.cols(),
                     std::vector<std::uint64_t>(burned_words(n), 0)};
  const std::uint8_t* cells = mask.data();
  for (std::size_t i = 0; i < n; ++i)
    burned.words[i / 64] |= static_cast<std::uint64_t>(cells[i] != 0)
                            << (i % 64);
  return burned;
}

FirePropagator::FirePropagator(const FireSpreadModel& model) : model_(&model) {}

IgnitionMap FirePropagator::propagate(const FireEnvironment& env,
                                      const Scenario& scenario,
                                      const std::vector<CellIndex>& ignitions,
                                      double horizon_min) const {
  PropagationWorkspace workspace;
  propagate(env, scenario, ignitions, horizon_min, workspace);
  return std::move(workspace.times_);
}

IgnitionMap FirePropagator::propagate(const FireEnvironment& env,
                                      const Scenario& scenario,
                                      const IgnitionMap& initial,
                                      double horizon_min) const {
  PropagationWorkspace workspace;
  propagate(env, scenario, initial, horizon_min, workspace);
  return std::move(workspace.times_);
}

const IgnitionMap& FirePropagator::propagate(
    const FireEnvironment& env, const Scenario& scenario,
    const std::vector<CellIndex>& ignitions, double horizon_min,
    PropagationWorkspace& workspace) const {
  if (workspace.times_.rows() != env.rows() ||
      workspace.times_.cols() != env.cols()) {
    workspace.times_ = IgnitionMap(env.rows(), env.cols(), kNeverIgnited);
  } else {
    workspace.times_.fill(kNeverIgnited);
  }
  for (const CellIndex& cell : ignitions) {
    ESSNS_REQUIRE(workspace.times_.in_bounds(cell),
                  "ignition cell out of bounds");
    workspace.times_(cell) = 0.0;
  }
  run_sweep(env, scenario, horizon_min, workspace);
  return workspace.times_;
}

const IgnitionMap& FirePropagator::propagate(
    const FireEnvironment& env, const Scenario& scenario,
    const IgnitionMap& initial, double horizon_min,
    PropagationWorkspace& workspace) const {
  ESSNS_REQUIRE(initial.rows() == env.rows() && initial.cols() == env.cols(),
                "initial map dimensions must match environment");
  workspace.times_ = initial;  // reuses capacity when dimensions match
  run_sweep(env, scenario, horizon_min, workspace);
  return workspace.times_;
}

void FirePropagator::run_sweep(const FireEnvironment& env,
                               const Scenario& scenario, double horizon_min,
                               PropagationWorkspace& workspace) const {
  ESSNS_REQUIRE(horizon_min >= 0.0, "horizon must be non-negative");
  // Every path indexes 14-entry per-model tables by the scenario model when
  // there is no fuel map.
  ESSNS_REQUIRE(model_->catalog().contains(scenario.model),
                "scenario fuel model out of catalog range");
  // Dial entries index cells with 32 bits and the bucket chains index the
  // entry arena with int32; seeding alone pushes up to one entry per cell.
  ESSNS_REQUIRE(workspace.times_.size() <= (std::size_t{1} << 30),
                "maps over 2^30 cells are not supported: the sweep's dial "
                "queue indexes cells and its entry arena with 32 bits");

  obs::SpanTimer sweep_timer("sweep");
  SweepCounters counters;

  const MoistureSet moisture{
      units::percent_to_fraction(scenario.m1),
      units::percent_to_fraction(scenario.m10),
      units::percent_to_fraction(scenario.m100),
      units::percent_to_fraction(scenario.mherb),
      units::percent_to_fraction(scenario.mherb),  // woody ~ herbaceous
  };
  const double wind_fpm = units::mph_to_ft_per_min(scenario.wind_speed);

  IgnitionMap& times = workspace.times_;
  const double cell_ft = env.cell_size_ft();
  const bool uniform = !env.has_topography();
  const int rows = times.rows();
  const int cols = times.cols();
  const std::size_t cells = times.size();
  double* t = times.data();
  // Travel distance toward 8-neighbour k (even k: edge, odd k: diagonal).
  std::array<double, 8> step_ft;
  for (std::size_t k = 0; k < 8; ++k)
    step_ft[k] = (k % 2 == 0) ? cell_ft : cell_ft * kSqrt2;

  // The sweep reads fuel codes as a flat aligned slab straight from the
  // environment (every Grid buffer is cache-line aligned) — no per-sweep
  // copy.
  const Grid<std::uint8_t>* fuel_map = env.fuel_map();
  const std::uint8_t* fuel = fuel_map ? fuel_map->data() : nullptr;

  // The burned-cell record is set at each live pop, and for a start cell
  // the seeding leaves out. Every live pop is at or before the horizon
  // (nothing later is pushed), and a cell that ends at or before it is
  // popped live at least once (its final entry) unless it is a left-out
  // start cell, so the bits are exactly the cells the clamped map reports
  // burned by horizon_min. A re-pop of a cell sets a bit already set.
  BurnedCells& burned = workspace.burned_;
  burned.rows = rows;
  burned.cols = cols;
  burned.words.assign(burned_words(cells), 0);
  std::uint64_t* burned_words_data = burned.words.data();
  const auto mark_burned = [&](std::size_t cell) {
    burned_words_data[cell >> 6] |= std::uint64_t{1} << (cell & 63);
  };

  // Seed the queue with every finite initial time at or before the horizon
  // (the final clamp erases later ones from the output) for which
  // `can_move(t0, cell)` holds, then drain it through `relax`. A start cell
  // that cannot improve any neighbour at seeding never can: times only fall
  // during a sweep. Should its own time fall later, relax pushes it.
  const auto sweep_with = [&](auto&& relax, auto&& can_move) {
    const auto pop = [&](double time, std::size_t cell, auto& queue) {
      mark_burned(cell);
      relax(time, cell, queue);
    };
    DialQueue queue(workspace.dial_entries_, workspace.dial_batch_,
                    workspace.bucket_head_, workspace.bucket_bits_,
                    workspace.cell_epoch_, workspace.dial_dirty_, horizon_min,
                    cells, counters);
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        const double t0 = times(r, c);
        if (t0 < kNeverIgnited) {
          ESSNS_REQUIRE(t0 >= 0.0,
                        "initial ignition times must be non-negative");
          if (t0 > horizon_min) continue;
          const std::size_t cell = times.index_of(r, c);
          if (can_move(t0, cell)) {
            queue.push(t0, cell);
          } else {
            mark_burned(cell);
            ++counters.seeds_pruned;
          }
        }
      }
    }
    queue.drain(pop);
  };

  if (uniform) {
    // Fast path, uniform topography: behavior depends only on the fuel
    // model, so each model's eight directional travel times are computed
    // once per sweep and the inner loop is pure table lookups —
    // arrival = top.time + travel_time[fuel][k]. A direction the model does
    // not spread toward holds kNeverIgnited, which no finite horizon admits.
    //
    // The rows are memoized across sweeps: they are a pure function of the
    // eight non-model Table-I params, the cell size and the spread model, so
    // when those match the previous uniform sweep through this workspace
    // (bit for bit), every row built then is still valid and the ready flags
    // survive — repeated same-scenario sweeps skip the rebuild entirely.
    const std::array<std::uint64_t, 9> tt_key =
        travel_table_key(scenario, cell_ft);
    if (!workspace.tt_valid_ || workspace.tt_key_ != tt_key ||
        workspace.tt_model_ != model_) {
      workspace.by_model_ready_.fill(false);
      workspace.tt_key_ = tt_key;
      workspace.tt_model_ = model_;
      workspace.tt_valid_ = true;
    }
    auto travel_row = [&](int cell_fuel) -> const std::array<double, 8>* {
      if (cell_fuel <= 0) return nullptr;
      auto idx = static_cast<std::size_t>(cell_fuel);
      if (!workspace.by_model_ready_[idx]) {
        WindSlope ws{wind_fpm, scenario.wind_dir,
                     units::slope_degrees_to_ratio(scenario.slope),
                     std::fmod(scenario.aspect + 180.0, 360.0)};
        workspace.by_model_[idx] = model_->behavior(cell_fuel, moisture, ws);
        for (std::size_t k = 0; k < 8; ++k) {
          const double rate =
              workspace.by_model_[idx].spread_rate_at(kNeighbourAzimuth[k]);
          workspace.travel_time_[idx][k] =
              rate > 0.0 ? step_ft[k] / rate : kNeverIgnited;
        }
        workspace.by_model_ready_[idx] = true;
        ++counters.tt_rows_built;
      }
      if (workspace.by_model_[idx].spread_rate_max <= 0.0) return nullptr;
      return &workspace.travel_time_[idx];
    };

    // Runtime-dispatched relax kernel: interior cells take the AVX2 8-lane
    // kernel when the simd mode resolves to it; border cells (and every
    // cell under scalar) run the retained scalar loop. Surviving lanes are
    // applied in ascending-k order, so stores and pushes are sequenced
    // exactly like the scalar loop's — bit-identical maps AND identical
    // push order (the queue's bucket drains feed whole frontier batches
    // through this same kernel).
    const bool vector_relax = simd_isa_ == simd::Isa::kAvx2;
    const NeighbourOffsets offsets = NeighbourOffsets::for_cols(cols);

    // Calls `visit(nidx, arrival)` for each in-bounds, burnable neighbour
    // whose arrival from (time, cell_idx) improves its time by the horizon,
    // in ascending k, until a call returns true; returns whether one did.
    // Relaxation stores and pushes each; the seeding's test stops at the
    // first.
    const auto admissions = [&](double time, std::size_t cell_idx,
                                auto&& visit) {
      const int r = static_cast<int>(cell_idx / static_cast<std::size_t>(cols));
      const int c = static_cast<int>(cell_idx % static_cast<std::size_t>(cols));
      const auto* tt = travel_row(fuel ? static_cast<int>(fuel[cell_idx])
                                       : scenario.model);
      if (!tt) return false;

      if (vector_relax && r > 0 && r + 1 < rows && c > 0 && c + 1 < cols) {
        alignas(32) double arrivals[8];
        unsigned admit =
            relax8_candidates_avx2(tt->data(), t, fuel, cell_idx, offsets,
                                   time, horizon_min, arrivals);
        while (admit != 0) {
          const unsigned k =
              static_cast<unsigned>(std::countr_zero(admit));
          admit &= admit - 1;
          const std::size_t nidx =
              cell_idx + static_cast<std::size_t>(
                             static_cast<std::ptrdiff_t>(offsets.off[k]));
          if (visit(nidx, arrivals[k])) return true;
        }
        return false;
      }

      for (std::size_t k = 0; k < kEightNeighbours.size(); ++k) {
        const int nr = r + kEightNeighbours[k].row;
        const int nc = c + kEightNeighbours[k].col;
        if (nr < 0 || nr >= rows || nc < 0 || nc >= cols) continue;
        const std::size_t nidx = static_cast<std::size_t>(nr) *
                                     static_cast<std::size_t>(cols) +
                                 static_cast<std::size_t>(nc);
        // Without a fuel map every cell shares the (burnable, or travel_row
        // would have bailed) scenario model — no per-neighbour probe needed.
        if (fuel && fuel[nidx] == 0) continue;
        const double arrival = time + (*tt)[k];
        if (arrival < t[nidx] && arrival <= horizon_min &&
            visit(nidx, arrival))
          return true;
      }
      return false;
    };

    sweep_with(
        [&](double time, std::size_t cell_idx, auto& queue) {
          admissions(time, cell_idx, [&](std::size_t nidx, double arrival) {
            t[nidx] = arrival;
            queue.push(arrival, nidx);
            return false;
          });
        },
        [&](double time, std::size_t cell_idx) {
          return admissions(time, cell_idx,
                            [](std::size_t, double) { return true; });
        });
  } else {
    // Fast path, per-cell topography. A cell is popped at most once per
    // sweep, so per-cell behavior is not cached; instead its two expensive
    // inputs are hoisted: the spread base (moisture, I_R, R0, phi_w) is a
    // function of the fuel model alone within a sweep and is built lazily
    // once per model, and the terrain terms (tan of slope, upslope azimuth)
    // are a function of the environment alone and live in workspace slabs
    // filled once per topography. Per pop only apply_wind_slope runs — the
    // same operands in the same order as behavior(), so bit-identical.
    if (workspace.terrain_id_ != env.topography_id() ||
        workspace.slope_ratio_.size() != cells) {
      workspace.slope_ratio_.resize(cells);
      workspace.upslope_deg_.resize(cells);
      for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
          const std::size_t idx = times.index_of(r, c);
          workspace.slope_ratio_[idx] =
              units::slope_degrees_to_ratio(env.slope_deg_at(r, c, scenario));
          workspace.upslope_deg_[idx] =
              std::fmod(env.aspect_deg_at(r, c, scenario) + 180.0, 360.0);
        }
      }
      workspace.terrain_id_ = env.topography_id();
    }
    const double* slope_ratio = workspace.slope_ratio_.data();
    const double* upslope_deg = workspace.upslope_deg_.data();

    std::array<SpreadBase, 14> base_by_model;
    std::array<bool, 14> base_ready{};
    auto base_of = [&](int cell_fuel) -> const SpreadBase& {
      const auto idx = static_cast<std::size_t>(cell_fuel);
      if (!base_ready[idx]) {
        base_by_model[idx] = model_->spread_base(cell_fuel, moisture, wind_fpm);
        base_ready[idx] = true;
      }
      return base_by_model[idx];
    };

    sweep_with([&](double time, std::size_t cell_idx, auto& queue) {
      const int cell_fuel =
          fuel ? static_cast<int>(fuel[cell_idx]) : scenario.model;
      if (cell_fuel <= 0) return;  // unburnable
      const FireBehavior behavior = apply_wind_slope(
          model_->fuel_bed(cell_fuel), base_of(cell_fuel),
          WindSlope{wind_fpm, scenario.wind_dir, slope_ratio[cell_idx],
                    upslope_deg[cell_idx]});
      if (behavior.spread_rate_max <= 0.0) return;

      const int r = static_cast<int>(cell_idx / static_cast<std::size_t>(cols));
      const int c = static_cast<int>(cell_idx % static_cast<std::size_t>(cols));
      for (std::size_t k = 0; k < kEightNeighbours.size(); ++k) {
        const int nr = r + kEightNeighbours[k].row;
        const int nc = c + kEightNeighbours[k].col;
        if (nr < 0 || nr >= rows || nc < 0 || nc >= cols) continue;
        const std::size_t nidx = static_cast<std::size_t>(nr) *
                                     static_cast<std::size_t>(cols) +
                                 static_cast<std::size_t>(nc);
        // Without a fuel map every cell shares the popped cell's burnable
        // model. A neighbour already at or before `time` cannot improve
        // (arrival >= time), so skip it before paying for the trig.
        if ((fuel && fuel[nidx] == 0) || t[nidx] <= time) continue;
        const double rate = behavior.spread_rate_at(kNeighbourAzimuth[k]);
        if (rate <= 0.0) continue;
        const double arrival = time + step_ft[k] / rate;
        if (arrival < t[nidx] && arrival <= horizon_min) {
          t[nidx] = arrival;
          queue.push(arrival, nidx);
        }
      }
      // Every start cell is seeded: a pruning test would pay apply_wind_slope
      // per start cell, the cost of the pop it saves.
    }, [](double, std::size_t) { return true; });
  }

  // Clamp: anything beyond the horizon is reported as never ignited, matching
  // the simulator contract ("time instant of ignition ... or zero otherwise").
  // This includes pre-seeded initial times greater than the horizon.
  for (double& time : times)
    if (time > horizon_min) time = kNeverIgnited;

  const double sweep_seconds = sweep_timer.stop();
  if (obs::metrics_enabled()) {  // one flush per sweep, never per cell
    obs::add_counter("sweep.count", 1);
    obs::add_counter("sweep.cells_popped", counters.popped);
    obs::add_counter("sweep.pushes", counters.pushes);
    obs::add_counter("sweep.stale_pops", counters.stale_pops);
    obs::add_counter("sweep.bucket_redrains", counters.bucket_redrains);
    obs::add_counter("sweep.seeds_pruned", counters.seeds_pruned);
    obs::add_counter("sweep.tt_table_rebuilds", counters.tt_rows_built);
    obs::record_histogram("sweep.seconds", sweep_seconds);
  }
}

}  // namespace essns::firelib
