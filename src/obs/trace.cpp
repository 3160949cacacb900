#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/error.hpp"

namespace essns::obs {
namespace {

/// Recorder generation counter: thread-local buffer caches are keyed by the
/// owning recorder's serial, not its address, so a new recorder allocated at
/// a recycled address can never inherit a stale cached buffer.
std::atomic<std::uint64_t> g_next_serial{1};

thread_local std::uint64_t t_cached_serial = 0;
thread_local TraceThreadBuffer* t_cached_buffer = nullptr;

/// Name set via set_thread_name before (or after) any recorder existed;
/// picked up when this thread registers with a recorder.
thread_local std::string t_pending_name;

std::string escape_json(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

/// Per-thread event ring. `events` is written only by the owning thread;
/// the recorder's mutex covers the buffer list itself, and export happens
/// only after recording threads have quiesced (the lifecycle contract).
struct TraceThreadBuffer {
  std::vector<TraceEvent> events;
  std::size_t next = 0;          ///< ring write cursor
  std::uint64_t recorded = 0;    ///< total record() calls by this thread
  std::string name;
  int tid = 0;
};

TraceRecorder::TraceRecorder(std::size_t events_per_thread)
    : capacity_(std::max<std::size_t>(events_per_thread, 1)),
      serial_(g_next_serial.fetch_add(1, std::memory_order_relaxed)) {}

TraceRecorder::~TraceRecorder() = default;

TraceThreadBuffer& TraceRecorder::local_buffer() {
  if (t_cached_serial == serial_ && t_cached_buffer) return *t_cached_buffer;
  std::lock_guard lock(mutex_);
  auto buffer = std::make_unique<TraceThreadBuffer>();
  buffer->events.resize(capacity_);
  buffer->tid = static_cast<int>(buffers_.size()) + 1;
  buffer->name = !t_pending_name.empty()
                     ? t_pending_name
                     : "thread-" + std::to_string(buffer->tid);
  t_cached_buffer = buffer.get();
  t_cached_serial = serial_;
  buffers_.push_back(std::move(buffer));
  return *t_cached_buffer;
}

void TraceRecorder::record(const char* name, std::uint64_t start_ns,
                           std::uint64_t end_ns) {
  TraceThreadBuffer& buffer = local_buffer();
  TraceEvent& event = buffer.events[buffer.next];
  event.start_ns = start_ns;
  event.dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
  std::strncpy(event.name, name, sizeof(event.name) - 1);
  event.name[sizeof(event.name) - 1] = '\0';
  buffer.next = buffer.next + 1 == capacity_ ? 0 : buffer.next + 1;
  ++buffer.recorded;
}

void TraceRecorder::name_current_thread(const std::string& name) {
  TraceThreadBuffer& buffer = local_buffer();
  std::lock_guard lock(mutex_);
  buffer.name = name;
}

std::size_t TraceRecorder::thread_count() const {
  std::lock_guard lock(mutex_);
  return buffers_.size();
}

std::size_t TraceRecorder::recorded() const {
  std::lock_guard lock(mutex_);
  std::size_t total = 0;
  for (const auto& buffer : buffers_) total += buffer->recorded;
  return total;
}

std::size_t TraceRecorder::dropped() const {
  std::lock_guard lock(mutex_);
  std::size_t total = 0;
  for (const auto& buffer : buffers_)
    if (buffer->recorded > capacity_) total += buffer->recorded - capacity_;
  return total;
}

std::vector<TraceRecorder::CollectedEvent> TraceRecorder::collect() const {
  std::lock_guard lock(mutex_);
  std::vector<CollectedEvent> events;
  for (const auto& buffer : buffers_) {
    const std::size_t kept =
        std::min<std::size_t>(buffer->recorded, capacity_);
    for (std::size_t i = 0; i < kept; ++i) {
      const TraceEvent& event = buffer->events[i];
      CollectedEvent out;
      out.tid = buffer->tid;
      out.thread_name = buffer->name;
      out.start_ns = event.start_ns;
      out.dur_ns = event.dur_ns;
      out.name = event.name;
      events.push_back(std::move(out));
    }
  }
  std::sort(events.begin(), events.end(),
            [](const CollectedEvent& a, const CollectedEvent& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.dur_ns > b.dur_ns;
            });
  return events;
}

std::string TraceRecorder::chrome_json() const {
  const std::vector<CollectedEvent> events = collect();

  // Rebase timestamps to the earliest retained event so the microsecond
  // values stay small (steady_clock's epoch is typically boot time).
  std::uint64_t base_ns = events.empty() ? 0 : events.front().start_ns;

  std::string json = "{\n  \"displayTimeUnit\": \"ms\",\n"
                     "  \"traceEvents\": [\n";
  bool first = true;
  const auto append = [&](const std::string& line) {
    if (!first) json += ",\n";
    first = false;
    json += "    " + line;
  };

  // Thread-name metadata events first, one per registered thread.
  {
    std::lock_guard lock(mutex_);
    for (const auto& buffer : buffers_) {
      append("{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, "
             "\"tid\": " +
             std::to_string(buffer->tid) + ", \"args\": {\"name\": \"" +
             escape_json(buffer->name) + "\"}}");
    }
  }

  char line[256];
  for (const CollectedEvent& event : events) {
    std::snprintf(line, sizeof(line),
                  "{\"ph\": \"X\", \"name\": \"%s\", \"pid\": 1, "
                  "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f}",
                  escape_json(event.name).c_str(), event.tid,
                  static_cast<double>(event.start_ns - base_ns) * 1e-3,
                  static_cast<double>(event.dur_ns) * 1e-3);
    append(line);
  }
  json += "\n  ],\n  \"otherData\": {\"dropped_events\": " +
          std::to_string(dropped()) + "}\n}\n";
  return json;
}

void TraceRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw IoError("cannot write trace file " + path);
  out << chrome_json();
  if (!out) throw IoError("failed writing trace file " + path);
}

void install_trace_recorder(TraceRecorder* recorder) {
  detail::g_trace_recorder.store(recorder, std::memory_order_release);
}

void set_thread_name(const std::string& name) {
  t_pending_name = name;
  if (TraceRecorder* recorder = trace_recorder())
    recorder->name_current_thread(name);
}

}  // namespace essns::obs
