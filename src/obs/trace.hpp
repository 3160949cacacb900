// Tracing half of the observability layer (src/obs/): lightweight spans
// recorded into per-thread ring buffers and exported as Chrome trace-event
// JSON (loadable in chrome://tracing or Perfetto), so a campaign renders as
// a timeline of jobs x pipeline stages x pool workers.
//
// Design constraints, in order:
//   1. Near-free when off. The global recorder is a single atomic pointer;
//      a disabled span is one relaxed load and two dead stores — no clock
//      read, no allocation, no branch beyond the null check.
//   2. No locks on the hot path when on. Each thread records into its own
//      ring buffer; the recorder's mutex is taken only on a thread's FIRST
//      event (buffer registration) and at export time.
//   3. Fixed memory. Rings overwrite their oldest events when full
//      (dropped() reports how many were lost) so a runaway span source can
//      never exhaust memory.
//
// Lifecycle contract: install_trace_recorder(&r) turns tracing on;
// install_trace_recorder(nullptr) turns it off. The recorder object must
// outlive every span that started while it was installed — in practice:
// uninstall and export only after worker pools have joined. ObsSession
// (obs/session.hpp) packages that sequence.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace essns::obs {

class TraceRecorder;

namespace detail {
/// The process-wide recorder; nullptr = tracing off. An inline global so
/// the enabled check compiles to one relaxed load everywhere.
inline std::atomic<TraceRecorder*> g_trace_recorder{nullptr};
}  // namespace detail

inline bool tracing_enabled() {
  return detail::g_trace_recorder.load(std::memory_order_acquire) != nullptr;
}

inline TraceRecorder* trace_recorder() {
  return detail::g_trace_recorder.load(std::memory_order_acquire);
}

/// Monotonic nanosecond tick — the ONE clock source every span, timer and
/// report timing in the tree derives from (steady_clock, same epoch for the
/// whole process).
inline std::uint64_t trace_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One completed span. The name is copied into a fixed buffer at record
/// time (only ever on the enabled path), so dynamic span names — per-job
/// labels like "job:hills-32" — need no allocation that outlives the call.
struct TraceEvent {
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  char name[40] = {};
};

struct TraceThreadBuffer;  // per-thread ring; definition private to trace.cpp

class TraceRecorder {
 public:
  /// Ring capacity is per registering thread, in events (64 bytes each).
  explicit TraceRecorder(std::size_t events_per_thread = std::size_t{1} << 14);
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Append a completed span to the calling thread's ring (registering the
  /// thread on first use). Lock-free after registration.
  void record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns);

  /// Label the calling thread in the exported timeline (also registers it).
  void name_current_thread(const std::string& name);

  std::size_t thread_count() const;
  /// Total record() calls across all threads.
  std::size_t recorded() const;
  /// Events overwritten by ring wraparound (recorded but not exportable).
  std::size_t dropped() const;

  /// A retained event with its thread attribution, for tests and export.
  struct CollectedEvent {
    int tid = 0;
    std::string thread_name;
    std::uint64_t start_ns = 0;
    std::uint64_t dur_ns = 0;
    std::string name;
  };
  /// Every retained event, sorted by start time. Call only while no thread
  /// is actively recording (rings are read without synchronization).
  std::vector<CollectedEvent> collect() const;

  /// Chrome trace-event JSON ("traceEvents" array of "X" complete events
  /// plus "M" thread-name metadata; ts/dur in microseconds rebased to the
  /// earliest retained event), with dropped() as
  /// "otherData": {"dropped_events": N} so a reader can tell a wrapped
  /// ring from a quiet thread.
  std::string chrome_json() const;
  /// chrome_json() to a file; throws IoError when the file cannot be
  /// written.
  void write_chrome_json(const std::string& path) const;

 private:
  TraceThreadBuffer& local_buffer();

  const std::size_t capacity_;
  const std::uint64_t serial_;  ///< distinguishes recorder generations
  mutable std::mutex mutex_;    ///< guards buffers_ (registration + export)
  std::vector<std::unique_ptr<TraceThreadBuffer>> buffers_;
};

/// Turn tracing on (recorder) or off (nullptr). The caller keeps ownership
/// and must keep the recorder alive until after the matching uninstall.
void install_trace_recorder(TraceRecorder* recorder);

/// Label the calling thread in any current AND future recorder: the name is
/// remembered thread-locally, so pools can name their workers at spawn time
/// regardless of whether tracing is enabled yet.
void set_thread_name(const std::string& name);

/// RAII span: captures the recorder at entry, records on scope exit. When
/// tracing is off this is two pointer stores — no clock read.
class TraceSpan {
 public:
  /// `name` must stay valid for the span's lifetime (string literals and
  /// strings owned by an enclosing scope both qualify).
  explicit TraceSpan(const char* name)
      : recorder_(trace_recorder()),
        name_(name),
        start_ns_(recorder_ ? trace_now_ns() : 0) {}

  ~TraceSpan() {
    // Re-check the global: if the recorder was uninstalled mid-span the
    // event is dropped rather than written into a possibly-dead recorder.
    if (recorder_ && trace_recorder() == recorder_)
      recorder_->record(name_, start_ns_, trace_now_ns());
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceRecorder* recorder_;
  const char* name_;
  std::uint64_t start_ns_;
};

/// Span + stopwatch in one: times a scope on trace_now_ns() and, when
/// tracing is on at stop time, records the span. This is what the report
/// plumbing (StepReport / CampaignReport / sim_seconds) uses instead of the
/// old ad-hoc Stopwatch call sites, so the JSONL/CSV timings and the trace
/// timeline come from the same clock and the same start/stop points.
class SpanTimer {
 public:
  explicit SpanTimer(const char* name)
      : name_(name), start_ns_(trace_now_ns()) {}

  ~SpanTimer() {
    if (!stopped_) stop();
  }

  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

  /// End the span (first call records it if tracing) and return the elapsed
  /// seconds since construction.
  double stop() {
    const std::uint64_t end_ns = trace_now_ns();
    if (!stopped_) {
      stopped_ = true;
      if (TraceRecorder* recorder = trace_recorder())
        recorder->record(name_, start_ns_, end_ns);
    }
    return static_cast<double>(end_ns - start_ns_) * 1e-9;
  }

  /// Elapsed seconds so far without ending the span.
  double elapsed_seconds() const {
    return static_cast<double>(trace_now_ns() - start_ns_) * 1e-9;
  }

 private:
  const char* name_;
  std::uint64_t start_ns_;
  bool stopped_ = false;
};

}  // namespace essns::obs

#define ESSNS_OBS_CONCAT_IMPL(a, b) a##b
#define ESSNS_OBS_CONCAT(a, b) ESSNS_OBS_CONCAT_IMPL(a, b)

/// Scoped span with a unique local name: ESSNS_TRACE_SPAN("sweep");
#define ESSNS_TRACE_SPAN(name)                                      \
  ::essns::obs::TraceSpan ESSNS_OBS_CONCAT(essns_trace_span_,       \
                                           __LINE__)(name)
