#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <mutex>
#include <vector>

#include "common/error.hpp"

namespace essns::obs {
namespace {

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

namespace detail {

std::size_t thread_stripe_id() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace detail

std::size_t Histogram::bucket_of(double value) {
  // !(value >= lowest) also routes NaN into the underflow bucket.
  if (!(value >= std::ldexp(1.0, kMinExp))) return 0;
  // frexp is unspecified for non-finite inputs; +inf belongs in the top
  // bucket alongside every other over-range value.
  if (!std::isfinite(value)) return kBucketCount - 1;
  int exponent = 0;
  const double fraction = std::frexp(value, &exponent);  // in [0.5, 1)
  const int octave = exponent - 1;                       // value in [2^o, 2^(o+1))
  if (octave >= kMaxExp) return kBucketCount - 1;
  int sub = static_cast<int>((fraction - 0.5) * (2 * kSubBuckets));
  sub = std::clamp(sub, 0, kSubBuckets - 1);
  return static_cast<std::size_t>(octave - kMinExp) * kSubBuckets +
         static_cast<std::size_t>(sub) + 1;
}

double Histogram::bucket_lower_bound(std::size_t bucket) {
  if (bucket == 0) return 0.0;
  const std::size_t linear = std::min(bucket, kBucketCount - 1) - 1;
  const int octave = kMinExp + static_cast<int>(linear / kSubBuckets);
  const int sub = static_cast<int>(linear % kSubBuckets);
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, octave);
}

void Histogram::record(double value) {
  Stripe& stripe = stripes_[detail::thread_stripe_id() % kStripes];
  stripe.counts[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
  stripe.total.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(stripe.sum, value);
  detail::atomic_min(min_, value);
  detail::atomic_max(max_, value);
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const Stripe& stripe : stripes_)
    total += stripe.total.load(std::memory_order_relaxed);
  return total;
}

double Histogram::sum() const {
  double total = 0.0;
  for (const Stripe& stripe : stripes_)
    total += stripe.sum.load(std::memory_order_relaxed);
  return total;
}

double Histogram::min() const {
  const double value = min_.load(std::memory_order_relaxed);
  return std::isfinite(value) ? value : 0.0;
}

double Histogram::max() const {
  const double value = max_.load(std::memory_order_relaxed);
  return std::isfinite(value) ? value : 0.0;
}

std::uint64_t Histogram::bucket_total(std::size_t bucket) const {
  if (bucket >= kBucketCount) return 0;
  std::uint64_t total = 0;
  for (const Stripe& stripe : stripes_)
    total += stripe.counts[bucket].load(std::memory_order_relaxed);
  return total;
}

double Histogram::quantile(double q) const {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation, 1-based: p50 of 100 samples is the
  // 50th smallest, p99 the 99th.
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  rank = std::clamp<std::uint64_t>(rank, 1, total);
  std::uint64_t cumulative = 0;
  for (std::size_t bucket = 0; bucket < kBucketCount; ++bucket) {
    cumulative += bucket_total(bucket);
    if (cumulative >= rank) return bucket_lower_bound(bucket);
  }
  return bucket_lower_bound(kBucketCount - 1);
}

Counter& MetricsRegistry::counter(const std::string& name) {
  {
    std::shared_lock lock(mutex_);
    const auto it = counters_.find(name);
    if (it != counters_.end()) return *it->second;
  }
  std::unique_lock lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  {
    std::shared_lock lock(mutex_);
    const auto it = histograms_.find(name);
    if (it != histograms_.end()) return *it->second;
  }
  std::unique_lock lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

bool MetricsRegistry::empty() const {
  std::shared_lock lock(mutex_);
  return counters_.empty() && histograms_.empty();
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count)));
  rank = std::clamp<std::uint64_t>(rank, 1, count);
  std::uint64_t cumulative = 0;
  for (std::size_t bucket = 0; bucket < buckets.size(); ++bucket) {
    cumulative += buckets[bucket];
    if (cumulative >= rank) return Histogram::bucket_lower_bound(bucket);
  }
  return Histogram::bucket_lower_bound(Histogram::kBucketCount - 1);
}

std::string MetricsSnapshot::json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    const std::uint64_t count = histogram.count;
    const double mean =
        count > 0 ? histogram.sum / static_cast<double>(count) : 0.0;
    out += "    \"" + name + "\": {";
    out += "\"count\": " + std::to_string(count);
    out += ", \"sum\": " + json_number(histogram.sum);
    out += ", \"min\": " + json_number(histogram.min);
    out += ", \"max\": " + json_number(histogram.max);
    out += ", \"mean\": " + json_number(mean);
    out += ", \"p50\": " + json_number(histogram.quantile(0.50));
    out += ", \"p90\": " + json_number(histogram.quantile(0.90));
    out += ", \"p99\": " + json_number(histogram.quantile(0.99));
    out += ", \"buckets\": [";
    bool first_bucket = true;
    for (std::size_t bucket = 0; bucket < histogram.buckets.size(); ++bucket) {
      const std::uint64_t bucket_count = histogram.buckets[bucket];
      if (bucket_count == 0) continue;
      if (!first_bucket) out += ", ";
      first_bucket = false;
      out += '[';
      out += json_number(Histogram::bucket_lower_bound(bucket));
      out += ", ";
      out += std::to_string(bucket_count);
      out += ']';
    }
    out += "]}";
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::shared_lock lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_)
    snap.counters[name] = counter->value();
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot& h = snap.histograms[name];
    h.count = histogram->count();
    h.sum = histogram->sum();
    h.min = histogram->min();
    h.max = histogram->max();
    if (h.count > 0) {
      h.buckets.resize(Histogram::kBucketCount, 0);
      for (std::size_t bucket = 0; bucket < Histogram::kBucketCount; ++bucket)
        h.buckets[bucket] = histogram->bucket_total(bucket);
    }
  }
  return snap;
}

std::string MetricsRegistry::json() const { return snapshot().json(); }

void MetricsRegistry::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw IoError("cannot write metrics file " + path);
  out << json();
  if (!out) throw IoError("failed writing metrics file " + path);
}

TextTable MetricsRegistry::summary_table() const {
  std::shared_lock lock(mutex_);
  TextTable table("metrics");
  table.set_header({"metric", "count", "mean", "p50", "p90", "p99", "max"});
  for (const auto& [name, counter] : counters_) {
    table.add_row({name, TextTable::integer(static_cast<long long>(
                             counter->value())),
                   "-", "-", "-", "-", "-"});
  }
  for (const auto& [name, histogram] : histograms_) {
    const std::uint64_t count = histogram->count();
    const double mean =
        count > 0 ? histogram->sum() / static_cast<double>(count) : 0.0;
    table.add_row({name,
                   TextTable::integer(static_cast<long long>(count)),
                   TextTable::num(mean, 6), TextTable::num(histogram->quantile(0.50), 6),
                   TextTable::num(histogram->quantile(0.90), 6),
                   TextTable::num(histogram->quantile(0.99), 6),
                   TextTable::num(histogram->max(), 6)});
  }
  return table;
}

void install_metrics_registry(MetricsRegistry* registry) {
  detail::g_metrics_registry.store(registry, std::memory_order_release);
}

}  // namespace essns::obs
