#include "firelib/batch_sweep.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_map>

#include "common/error.hpp"
#include "common/units.hpp"
#include "firelib/relax_kernel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace essns::firelib {
namespace {

// Mirrors of run_sweep's constants (propagator.cpp): azimuth toward
// 8-neighbour k of kEightNeighbours, diagonal step factor, nil chain link.
constexpr std::array<double, 8> kNeighbourAzimuth = {
    0.0, 45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0};

constexpr double kSqrt2 = 1.41421356237309504880;

constexpr std::int32_t kNilEntry = -1;

/// Scenarios whose eight non-model Table-I params match bit for bit share one
/// travel-time table: the 14x8 table is a pure function of those bits plus
/// the cell size, and the fuel model only selects a row. Raw bit patterns, no
/// normalization — distinct bits always get distinct groups, so sharing is
/// always sound.
struct TableKey {
  std::array<std::uint64_t, 8> bits;

  friend bool operator==(const TableKey&, const TableKey&) = default;
};

struct TableKeyHash {
  std::size_t operator()(const TableKey& key) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (const std::uint64_t b : key.bits)
      h ^= b + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return static_cast<std::size_t>(h);
  }
};

TableKey table_key(const Scenario& s) {
  return TableKey{{std::bit_cast<std::uint64_t>(s.wind_speed),
                   std::bit_cast<std::uint64_t>(s.wind_dir),
                   std::bit_cast<std::uint64_t>(s.m1),
                   std::bit_cast<std::uint64_t>(s.m10),
                   std::bit_cast<std::uint64_t>(s.m100),
                   std::bit_cast<std::uint64_t>(s.mherb),
                   std::bit_cast<std::uint64_t>(s.slope),
                   std::bit_cast<std::uint64_t>(s.aspect)}};
}

std::size_t round_up_line(std::size_t bytes) {
  return (bytes + kCacheLineBytes - 1) & ~(kCacheLineBytes - 1);
}

}  // namespace

struct BatchSweep::GroupTable {
  /// 64-byte-aligned rows feed the AVX2 relax kernel's aligned loads, the
  /// same contract as PropagationWorkspace::travel_time_.
  alignas(kCacheLineBytes) std::array<std::array<double, 8>, 14> travel_time{};
  std::array<FireBehavior, 14> by_model{};
  std::array<bool, 14> ready{};
  MoistureSet moisture;
  WindSlope wind_slope;
};

BatchSweep::BatchSweep(const FireSpreadModel& model)
    : model_(&model), scalar_(model) {}

BatchSweep::~BatchSweep() = default;

void BatchSweep::set_simd_mode(simd::Mode mode) {
  simd_mode_ = mode;
  simd_isa_ = simd::resolve(mode);
  scalar_.set_simd_mode(mode);
}

std::vector<IgnitionMap> BatchSweep::sweep(
    const FireEnvironment& env, const std::vector<const Scenario*>& scenarios,
    const IgnitionMap& start, double horizon_min) {
  ESSNS_REQUIRE(horizon_min >= 0.0, "horizon must be non-negative");
  ESSNS_REQUIRE(start.rows() == env.rows() && start.cols() == env.cols(),
                "initial map dimensions must match environment");
  for (const Scenario* scenario : scenarios) {
    ESSNS_REQUIRE(scenario != nullptr, "batch scenario must be set");
    ESSNS_REQUIRE(model_->catalog().contains(scenario->model),
                  "scenario fuel model out of catalog range");
  }

  last_table_groups_ = 0;
  last_table_rows_built_ = 0;
  last_batched_ = 0;
  last_fallbacks_ = 0;

  std::vector<IgnitionMap> results;
  if (scenarios.empty()) return results;

  const std::size_t cells = start.size();
  // The batched drain covers the uniform-topography fast path (the paper's
  // Table-I scenarios). DEM terrains need per-cell wind/slope behavior, and maps
  // beyond the dial arena's int32 indexing cannot use bucket chains; both
  // take the per-scenario scalar propagator instead — a pure function of the
  // same inputs, so the bit-identity contract holds on every input.
  const bool batched_ok =
      !env.has_topography() && cells <= (std::size_t{1} << 30);
  if (!batched_ok) {
    results.reserve(scenarios.size());
    for (const Scenario* scenario : scenarios) {
      results.push_back(scalar_.propagate(env, *scenario, start, horizon_min,
                                          fallback_workspace_));
      ++last_fallbacks_;
    }
    return results;
  }

  obs::SpanTimer sweep_timer("batch_sweep");

  const int rows = env.rows();
  const int cols = env.cols();
  const double cell_ft = env.cell_size_ft();
  const Grid<std::uint8_t>* fuel_map = env.fuel_map();
  const std::uint8_t* fuel = fuel_map ? fuel_map->data() : nullptr;

  // Travel distance toward 8-neighbour k (even k: edge, odd k: diagonal).
  std::array<double, 8> step_ft;
  for (std::size_t k = 0; k < 8; ++k)
    step_ft[k] = (k % 2 == 0) ? cell_ft : cell_ft * kSqrt2;

  // --- Group the batch by travel-time-table identity -----------------------
  groups_.clear();
  std::unordered_map<TableKey, std::size_t, TableKeyHash> group_of;
  std::vector<std::size_t> scenario_group(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& s = *scenarios[i];
    const auto [it, inserted] =
        group_of.try_emplace(table_key(s), groups_.size());
    if (inserted) {
      auto group = std::make_unique<GroupTable>();
      group->moisture = MoistureSet{
          units::percent_to_fraction(s.m1),
          units::percent_to_fraction(s.m10),
          units::percent_to_fraction(s.m100),
          units::percent_to_fraction(s.mherb),
          units::percent_to_fraction(s.mherb),  // woody ~ herbaceous
      };
      group->wind_slope =
          WindSlope{units::mph_to_ft_per_min(s.wind_speed), s.wind_dir,
                    units::slope_degrees_to_ratio(s.slope),
                    std::fmod(s.aspect + 180.0, 360.0)};
      groups_.push_back(std::move(group));
    }
    scenario_group[i] = it->second;
  }
  last_table_groups_ = groups_.size();

  // Lazily fill one row per (group, fuel model) across the WHOLE batch: the
  // same IEEE arithmetic on the same operands as run_sweep's travel_row, so
  // the rows are bit-identical to the per-sweep ones.
  std::uint64_t rows_built = 0;
  auto travel_row = [&](GroupTable& group,
                        int cell_fuel) -> const std::array<double, 8>* {
    if (cell_fuel <= 0) return nullptr;
    const auto idx = static_cast<std::size_t>(cell_fuel);
    if (!group.ready[idx]) {
      group.by_model[idx] =
          model_->behavior(cell_fuel, group.moisture, group.wind_slope);
      for (std::size_t k = 0; k < 8; ++k) {
        const double rate =
            group.by_model[idx].spread_rate_at(kNeighbourAzimuth[k]);
        group.travel_time[idx][k] =
            rate > 0.0 ? step_ft[k] / rate : kNeverIgnited;
      }
      group.ready[idx] = true;
      ++rows_built;
    }
    if (group.by_model[idx].spread_rate_max <= 0.0) return nullptr;
    return &group.travel_time[idx];
  };

  // Dial geometry, identical to DialSweepQueue's (propagator.cpp).
  const std::size_t num_buckets =
      std::clamp<std::size_t>(cells, 64, std::size_t{1} << 16);
  const double raw_inv_width = static_cast<double>(num_buckets) / horizon_min;
  const double inv_width =
      (horizon_min > 0.0 && std::isfinite(raw_inv_width)) ? raw_inv_width
                                                          : 0.0;
  const std::size_t num_words = (num_buckets + 63) / 64;

  using DialEntry = PropagationWorkspace::DialEntry;
  // Fixed per-lane entry arena: in steady state a cell contributes ~1-2
  // entries, so 2x cells absorbs the common case; a lane that overflows is
  // abandoned and re-run through the scalar fallback (see push below).
  const std::size_t default_cap = std::min<std::size_t>(
      2 * cells + 64,
      static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()));
  const std::size_t entry_cap =
      debug_entry_capacity_ > 0 ? debug_entry_capacity_ : default_cap;

  // Super-slab carve: one 64-byte-aligned arena, one contiguous stripe per
  // lane holding ALL of its hot state (times, epochs, bucket heads,
  // occupancy words, entry arena) — the layout a one-scenario-per-block GPU
  // kernel consumes. Section offsets are cache-line rounded so every section
  // starts 64-byte aligned.
  const std::size_t times_bytes = round_up_line(cells * sizeof(double));
  const std::size_t epoch_bytes =
      round_up_line(cells * sizeof(std::uint32_t));
  const std::size_t head_bytes =
      round_up_line(num_buckets * sizeof(std::int32_t));
  const std::size_t word_bytes =
      round_up_line(num_words * sizeof(std::uint64_t));
  const std::size_t entry_bytes = round_up_line(entry_cap * sizeof(DialEntry));
  const std::size_t stripe_bytes =
      times_bytes + epoch_bytes + head_bytes + word_bytes + entry_bytes;

  struct Lane {
    double* times;
    std::uint32_t* epochs;
    std::int32_t* heads;
    std::uint64_t* words;
    DialEntry* entries;
    std::size_t entry_count;
    GroupTable* group;
    const Scenario* scenario;
    std::size_t batch_index;  ///< index into `scenarios` / `results`
    bool spilled;
  };

  // Arbitrarily large batches run in bounded-memory chunks of lanes;
  // scenario independence makes chunking invisible in the output, and the
  // group tables persist across chunks (still built once per batch group).
  constexpr std::size_t kMaxLanes = 16;
  const std::size_t lane_count = std::min(scenarios.size(), kMaxLanes);
  // A completed drain leaves a lane's chain heads all nil and occupancy
  // words all zero (the same invariant DialSweepQueue exploits), and epoch
  // staleness only ever compares pushes from the same sweep, so arbitrary
  // carried-over epochs are valid. Lanes from a previous launch with the
  // same stripe geometry therefore skip the heads/words/epochs re-fill;
  // only a geometry change or a spill-abandoned drain forces one.
  const bool same_carve = carved_stripe_bytes_ == stripe_bytes &&
                          carved_cells_ == cells &&
                          carved_buckets_ == num_buckets &&
                          arena_.size() >= stripe_bytes * lane_count;
  if (!same_carve) {
    arena_.resize(stripe_bytes * lane_count);
    lane_clean_.assign(lane_count, 0);
    carved_stripe_bytes_ = stripe_bytes;
    carved_cells_ = cells;
    carved_buckets_ = num_buckets;
  } else if (lane_clean_.size() < lane_count) {
    lane_clean_.resize(lane_count, 0);
  }
  std::uint8_t* base = arena_.data();

  results.resize(scenarios.size());
  std::vector<Lane> lanes(lane_count);
  std::vector<DialEntry> bucket_batch;  // shared (time, cell) sort scratch

  std::uint64_t popped = 0;
  std::uint64_t pushes = 0;
  std::uint64_t stale_pops = 0;
  std::uint64_t bucket_redrains = 0;

  auto bucket_of = [&](double time) -> std::size_t {
    const double scaled = time * inv_width;
    if (scaled >= static_cast<double>(num_buckets)) return num_buckets - 1;
    return static_cast<std::size_t>(scaled);
  };

  auto push = [&](Lane& lane, double time, std::size_t cell) {
    if (time > horizon_min) return;
    if (lane.entry_count >= entry_cap) {
      lane.spilled = true;  // fixed arena full — redo this lane via scalar
      return;
    }
    const std::size_t bucket = bucket_of(time);
    const std::uint32_t epoch = ++lane.epochs[cell];
    lane.entries[lane.entry_count] = DialEntry{
        time, static_cast<std::uint32_t>(cell), epoch, lane.heads[bucket]};
    lane.heads[bucket] = static_cast<std::int32_t>(lane.entry_count);
    lane.words[bucket >> 6] |= std::uint64_t{1} << (bucket & 63);
    ++lane.entry_count;
    ++pushes;
  };

  const bool vector_relax = simd_isa_ == simd::Isa::kAvx2;
  const NeighbourOffsets offsets = NeighbourOffsets::for_cols(cols);

  // The uniform relax step of run_sweep, verbatim semantics: group-table
  // lookup, AVX2 8-lane kernel on interior cells when dispatched, surviving
  // lanes applied in ascending-k order.
  auto relax = [&](Lane& lane, double time, std::size_t cell_idx) {
    const int r = static_cast<int>(cell_idx / static_cast<std::size_t>(cols));
    const int c = static_cast<int>(cell_idx % static_cast<std::size_t>(cols));
    const auto* tt = travel_row(
        *lane.group,
        fuel ? static_cast<int>(fuel[cell_idx]) : lane.scenario->model);
    if (!tt) return;
    double* t = lane.times;

    if (vector_relax && r > 0 && r + 1 < rows && c > 0 && c + 1 < cols) {
      alignas(32) double arrivals[8];
      unsigned admit = relax8_candidates_avx2(
          tt->data(), t, fuel, cell_idx, offsets, time, horizon_min, arrivals);
      while (admit != 0) {
        const unsigned k = static_cast<unsigned>(std::countr_zero(admit));
        admit &= admit - 1;
        const std::size_t nidx =
            cell_idx + static_cast<std::size_t>(
                           static_cast<std::ptrdiff_t>(offsets.off[k]));
        t[nidx] = arrivals[k];
        push(lane, arrivals[k], nidx);
      }
      return;
    }

    for (std::size_t k = 0; k < kEightNeighbours.size(); ++k) {
      const int nr = r + kEightNeighbours[k].row;
      const int nc = c + kEightNeighbours[k].col;
      if (nr < 0 || nr >= rows || nc < 0 || nc >= cols) continue;
      const std::size_t nidx = static_cast<std::size_t>(nr) *
                                   static_cast<std::size_t>(cols) +
                               static_cast<std::size_t>(nc);
      if (fuel && fuel[nidx] == 0) continue;
      const double arrival = time + (*tt)[k];
      if (arrival < t[nidx] && arrival <= horizon_min) {
        t[nidx] = arrival;
        push(lane, arrival, nidx);
      }
    }
  };

  // DialSweepQueue::drain_bucket, per lane: singleton fast path, (time, cell)
  // batch sort for ties, per-cell epoch staleness, re-detach until dry.
  auto drain_bucket = [&](Lane& lane, std::size_t b) {
    bool first_pass = true;
    while (lane.heads[b] != kNilEntry) {
      if (!first_pass) ++bucket_redrains;
      first_pass = false;
      const std::int32_t head = lane.heads[b];
      if (lane.entries[static_cast<std::size_t>(head)].next == kNilEntry) {
        lane.heads[b] = kNilEntry;
        const DialEntry entry = lane.entries[static_cast<std::size_t>(head)];
        if (entry.epoch == lane.epochs[entry.cell]) {
          ++popped;
          relax(lane, entry.time, static_cast<std::size_t>(entry.cell));
        } else {
          ++stale_pops;
        }
        continue;
      }
      bucket_batch.clear();
      for (std::int32_t i = head; i != kNilEntry;
           i = lane.entries[static_cast<std::size_t>(i)].next)
        bucket_batch.push_back(lane.entries[static_cast<std::size_t>(i)]);
      lane.heads[b] = kNilEntry;
      std::sort(bucket_batch.begin(), bucket_batch.end(),
                [](const DialEntry& x, const DialEntry& y) {
                  return x.time != y.time ? x.time < y.time : x.cell < y.cell;
                });
      for (const DialEntry& entry : bucket_batch) {
        if (entry.epoch != lane.epochs[entry.cell]) {
          ++stale_pops;
          continue;
        }
        ++popped;
        relax(lane, entry.time, static_cast<std::size_t>(entry.cell));
      }
    }
  };

  for (std::size_t chunk_begin = 0; chunk_begin < scenarios.size();
       chunk_begin += lane_count) {
    const std::size_t chunk =
        std::min(lane_count, scenarios.size() - chunk_begin);

    // Carve and initialize each lane's stripe: the start map's times, zeroed
    // epochs, nil chain heads, clear occupancy words; then seed every finite
    // initial time exactly like the scalar sweep (the dial push drops seeds
    // beyond the horizon; the final clamp erases them either way).
    for (std::size_t l = 0; l < chunk; ++l) {
      Lane& lane = lanes[l];
      std::uint8_t* p = base + l * stripe_bytes;
      lane.times = reinterpret_cast<double*>(p);
      p += times_bytes;
      lane.epochs = reinterpret_cast<std::uint32_t*>(p);
      p += epoch_bytes;
      lane.heads = reinterpret_cast<std::int32_t*>(p);
      p += head_bytes;
      lane.words = reinterpret_cast<std::uint64_t*>(p);
      p += word_bytes;
      lane.entries = reinterpret_cast<DialEntry*>(p);
      lane.entry_count = 0;
      lane.batch_index = chunk_begin + l;
      lane.scenario = scenarios[lane.batch_index];
      lane.group = groups_[scenario_group[lane.batch_index]].get();
      lane.spilled = false;
      std::memcpy(lane.times, start.data(), cells * sizeof(double));
      if (!lane_clean_[l]) {
        std::fill_n(lane.epochs, cells, std::uint32_t{0});
        std::fill_n(lane.heads, num_buckets, kNilEntry);
        std::fill_n(lane.words, num_words, std::uint64_t{0});
      }
      lane_clean_[l] = 0;  // in use; marked clean again after its drain
      for (std::size_t idx = 0; idx < cells; ++idx) {
        const double t0 = lane.times[idx];
        if (t0 < kNeverIgnited) {
          ESSNS_REQUIRE(t0 >= 0.0,
                        "initial ignition times must be non-negative");
          push(lane, t0, idx);
        }
      }
    }

    // Scenario-major wavefronts: for each 64-bucket word (ascending in
    // time), every lane drains its buckets under that word to exhaustion
    // before the wavefront advances. Pushes from draining bucket b only land
    // in buckets >= b (arrivals are never earlier than the popped time), the
    // inner while re-reads the word, and drain_bucket re-detaches until dry
    // — so each lane's pop/push sequence is exactly the scalar
    // DialSweepQueue's.
    for (std::size_t w = 0; w < num_words; ++w) {
      for (std::size_t l = 0; l < chunk; ++l) {
        Lane& lane = lanes[l];
        if (lane.spilled) continue;
        while (lane.words[w] != 0) {
          const std::size_t b =
              (w << 6) +
              static_cast<std::size_t>(std::countr_zero(lane.words[w]));
          drain_bucket(lane, b);
          if (lane.spilled) break;
          lane.words[w] &= lane.words[w] - 1;
        }
      }
    }

    // Copy out with the horizon clamp. Spilled lanes (entry-arena overflow)
    // re-run through the scalar propagator from the untouched start map — a
    // pure function of the same inputs, so still bit-identical.
    for (std::size_t l = 0; l < chunk; ++l) {
      Lane& lane = lanes[l];
      IgnitionMap& out = results[lane.batch_index];
      if (lane.spilled) {
        ++last_fallbacks_;
        out = scalar_.propagate(env, *lane.scenario, start, horizon_min,
                                fallback_workspace_);
        continue;
      }
      lane_clean_[l] = 1;  // drain ran dry: heads all nil, words all zero
      ++last_batched_;
      out = IgnitionMap(rows, cols);
      double* dst = out.data();
      for (std::size_t idx = 0; idx < cells; ++idx) {
        const double time = lane.times[idx];
        dst[idx] = time > horizon_min ? kNeverIgnited : time;
      }
    }
  }

  last_table_rows_built_ = rows_built;
  const double sweep_seconds = sweep_timer.stop();
  if (obs::metrics_enabled()) {  // one flush per batch, never per cell
    obs::add_counter("sweep.count", last_batched_);
    obs::add_counter("sweep.cells_popped", popped);
    obs::add_counter("sweep.pushes", pushes);
    obs::add_counter("sweep.stale_pops", stale_pops);
    obs::add_counter("sweep.bucket_redrains", bucket_redrains);
    obs::add_counter("sweep.tt_table_rebuilds", rows_built);
    obs::record_histogram("sweep.seconds", sweep_seconds);
  }
  return results;
}

}  // namespace essns::firelib
