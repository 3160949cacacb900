// Metrics half of the observability layer (src/obs/): a process-wide
// registry of named counters and log-bucketed histograms, exported as JSON
// (--metrics-out), spliced into every BENCH_*.json, and rendered as a text
// summary table. This is the latency-percentile machinery the ROADMAP's
// prediction server will scrape (p50/p90/p99 over sim.seconds,
// pool.queue_wait_seconds, campaign.job_seconds, ...).
//
// Concurrency model: counters and histogram buckets are striped over
// cache-line-padded atomic slots; each thread picks a stripe once
// (round-robin thread id) and only ever touches that slot with relaxed
// fetch_adds, so the hot path never contends a lock. Scrapes aggregate the
// stripes — totals are exact (every increment lands in exactly one stripe),
// only the instant of observation is racy, which is inherent to scraping a
// live system.
//
// Like tracing, the registry is installed behind one atomic pointer:
// metrics_enabled() is a single relaxed load, and every instrumentation
// site is a no-op when nothing is installed.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/table.hpp"

namespace essns::obs {

namespace detail {

/// Small dense per-thread id used to pick counter/histogram stripes:
/// round-robin assignment spreads threads evenly (a hash of thread::id
/// can collide arbitrarily badly).
std::size_t thread_stripe_id();

inline void atomic_add(std::atomic<double>& slot, double value) {
  double current = slot.load(std::memory_order_relaxed);
  while (!slot.compare_exchange_weak(current, current + value,
                                     std::memory_order_relaxed)) {
  }
}

inline void atomic_min(std::atomic<double>& slot, double value) {
  double current = slot.load(std::memory_order_relaxed);
  while (value < current && !slot.compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

inline void atomic_max(std::atomic<double>& slot, double value) {
  double current = slot.load(std::memory_order_relaxed);
  while (value > current && !slot.compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

}  // namespace detail

/// Monotonic counter, striped so concurrent adds from different threads hit
/// different cache lines. value() is the exact sum of all adds.
class Counter {
 public:
  static constexpr std::size_t kStripes = 16;

  void add(std::uint64_t n = 1) {
    stripes_[detail::thread_stripe_id() % kStripes].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const Stripe& stripe : stripes_)
      sum += stripe.value.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Stripe, kStripes> stripes_{};
};

/// Log-bucketed histogram over positive doubles: each power-of-two octave
/// is split into kSubBuckets linear sub-buckets (HdrHistogram-style), for a
/// worst-case relative bucket width of 1/kSubBuckets (25%). Bucket 0 is the
/// underflow bucket (zero, negative, sub-2^kMinExp and NaN inputs); values
/// at or above 2^kMaxExp clamp into the top bucket.
///
/// Bucket boundaries are exactly-representable doubles
/// (ldexp(1 + s/kSubBuckets, octave)), so quantile() — which returns the
/// lower bound of the bucket holding the rank-ceil(q*count) value — is
/// deterministic and exactly testable on pinned inputs.
class Histogram {
 public:
  static constexpr int kSubBuckets = 4;
  static constexpr int kMinExp = -32;  ///< lowest octave: [2^-32, 2^-31)
  static constexpr int kMaxExp = 32;   ///< top bucket absorbs >= 2^32 * 1.75
  static constexpr std::size_t kBucketCount =
      static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets + 1;
  static constexpr std::size_t kStripes = 8;

  void record(double value);

  std::uint64_t count() const;
  double sum() const;
  /// Exact smallest/largest recorded value; 0 when the histogram is empty.
  double min() const;
  double max() const;
  /// Aggregated count in one bucket.
  std::uint64_t bucket_total(std::size_t bucket) const;

  /// Lower bound of the bucket containing the ceil(q*count)-th smallest
  /// recorded value (q clamped to [0,1]); 0 when empty.
  double quantile(double q) const;

  static std::size_t bucket_of(double value);
  static double bucket_lower_bound(std::size_t bucket);

 private:
  struct alignas(64) Stripe {
    std::array<std::atomic<std::uint64_t>, kBucketCount> counts{};
    std::atomic<std::uint64_t> total{0};
    std::atomic<double> sum{0.0};
  };
  std::array<Stripe, kStripes> stripes_{};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Plain-data copy of one histogram's state: bucket counts plus the exact
/// aggregates.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< exact smallest recorded value; 0 when count == 0
  double max = 0.0;
  /// Per-bucket counts, Histogram::kBucketCount entries; empty means all
  /// zero (an empty histogram snapshots to an empty vector).
  std::vector<std::uint64_t> buckets;

  /// Same contract as Histogram::quantile, over the snapshotted buckets.
  double quantile(double q) const;
};

/// Point-in-time copy of a whole registry. MetricsRegistry::json() renders
/// one, so every scrape goes through the same json() document.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, HistogramSnapshot> histograms;

  std::string json() const;
};

/// Name -> metric map. Lookup takes a shared lock (creation an exclusive
/// one, once per name); returned references stay valid for the registry's
/// lifetime. Export orderings are the sorted names, so JSON output is
/// deterministic.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name);

  bool empty() const;

  /// Plain-data copy of the current state (totals exact, instant racy —
  /// scrape after the recording threads have quiesced for exact numbers).
  MetricsSnapshot snapshot() const;

  /// {"counters": {...}, "histograms": {name: {count,sum,min,max,mean,
  /// p50,p90,p99,buckets:[[lower_bound,count],...]}, ...}}
  std::string json() const;
  /// json() to a file; throws IoError when the file cannot be written.
  void write_json(const std::string& path) const;

  /// Human-readable scrape: one row per metric with count/value and the
  /// p50/p90/p99/max columns for histograms.
  TextTable summary_table() const;

 private:
  mutable std::shared_mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

namespace detail {
inline std::atomic<MetricsRegistry*> g_metrics_registry{nullptr};
}  // namespace detail

inline MetricsRegistry* metrics_registry() {
  return detail::g_metrics_registry.load(std::memory_order_acquire);
}

inline bool metrics_enabled() { return metrics_registry() != nullptr; }

/// Turn metrics on (registry) or off (nullptr). The caller keeps ownership
/// and must keep the registry alive until after the matching uninstall.
void install_metrics_registry(MetricsRegistry* registry);

/// Instrumentation-site helpers: one relaxed load when metrics are off.
inline void add_counter(const char* name, std::uint64_t n) {
  if (MetricsRegistry* registry = metrics_registry())
    registry->counter(name).add(n);
}

inline void record_histogram(const char* name, double value) {
  if (MetricsRegistry* registry = metrics_registry())
    registry->histogram(name).record(value);
}

}  // namespace essns::obs
