#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "obs/session.hpp"
#include "json_checker.hpp"

namespace essns::obs {
namespace {

/// Reinstalls whatever recorder a test replaced, so tests cannot leak an
/// installed recorder into each other.
class RecorderGuard {
 public:
  RecorderGuard() : previous_(trace_recorder()) {}
  ~RecorderGuard() { install_trace_recorder(previous_); }

 private:
  TraceRecorder* previous_;
};

TEST(TraceTest, DisabledRecorderRecordsNothing) {
  RecorderGuard guard;
  install_trace_recorder(nullptr);
  { ESSNS_TRACE_SPAN("ignored"); }
  TraceRecorder recorder;
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_EQ(recorder.thread_count(), 0u);
}

TEST(TraceTest, SpanRecordsNameAndDuration) {
  RecorderGuard guard;
  TraceRecorder recorder;
  install_trace_recorder(&recorder);
  { ESSNS_TRACE_SPAN("unit-span"); }
  install_trace_recorder(nullptr);

  ASSERT_EQ(recorder.recorded(), 1u);
  const auto events = recorder.collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "unit-span");
  EXPECT_GT(events[0].start_ns, 0u);
}

TEST(TraceTest, NestedSpansAreContainedInTheOuterSpan) {
  RecorderGuard guard;
  TraceRecorder recorder;
  install_trace_recorder(&recorder);
  {
    ESSNS_TRACE_SPAN("outer");
    {
      ESSNS_TRACE_SPAN("inner");
    }
  }
  install_trace_recorder(nullptr);

  const auto events = recorder.collect();
  ASSERT_EQ(events.size(), 2u);
  // collect() sorts by start time; the outer span started first.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner");
  const auto outer_end = events[0].start_ns + events[0].dur_ns;
  const auto inner_end = events[1].start_ns + events[1].dur_ns;
  EXPECT_GE(events[1].start_ns, events[0].start_ns);
  EXPECT_LE(inner_end, outer_end);
}

TEST(TraceTest, ThreadsGetDistinctIdsAndNames) {
  RecorderGuard guard;
  TraceRecorder recorder;
  install_trace_recorder(&recorder);
  {
    ESSNS_TRACE_SPAN("main-span");
  }
  std::thread worker([] {
    set_thread_name("unit-worker");
    ESSNS_TRACE_SPAN("worker-span");
  });
  worker.join();
  install_trace_recorder(nullptr);

  const auto events = recorder.collect();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(recorder.thread_count(), 2u);
  int main_tid = 0;
  int worker_tid = 0;
  for (const auto& event : events) {
    if (event.name == "main-span") main_tid = event.tid;
    if (event.name == "worker-span") {
      worker_tid = event.tid;
      EXPECT_EQ(event.thread_name, "unit-worker");
    }
  }
  EXPECT_NE(main_tid, 0);
  EXPECT_NE(worker_tid, 0);
  EXPECT_NE(main_tid, worker_tid);
}

TEST(TraceTest, PendingThreadNameAppliesToLaterRecorder) {
  RecorderGuard guard;
  TraceRecorder recorder;
  std::thread worker([&] {
    // Named BEFORE any recorder is installed — the pool-at-spawn pattern.
    set_thread_name("early-bird");
    install_trace_recorder(&recorder);
    ESSNS_TRACE_SPAN("named-span");
  });
  worker.join();
  install_trace_recorder(nullptr);

  const auto events = recorder.collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].thread_name, "early-bird");
}

TEST(TraceTest, RingWrapsAroundKeepingCapacityEvents) {
  RecorderGuard guard;
  TraceRecorder recorder(4);
  install_trace_recorder(&recorder);
  for (int i = 0; i < 10; ++i) {
    ESSNS_TRACE_SPAN("wrap");
  }
  install_trace_recorder(nullptr);

  EXPECT_EQ(recorder.recorded(), 10u);
  EXPECT_EQ(recorder.dropped(), 6u);
  EXPECT_EQ(recorder.collect().size(), 4u);

  // The export says how many events the ring lost.
  const testjson::Value root = testjson::parse(recorder.chrome_json());
  EXPECT_EQ(root.member("traceEvents").elements().size(), 4u + 1u);  // + M
  EXPECT_EQ(root.member("otherData").member("dropped_events").number_value(),
            6.0);
}

TEST(TraceTest, RecordClampsBackwardsTimeToZeroDuration) {
  RecorderGuard guard;
  TraceRecorder recorder;
  recorder.record("backwards", 100, 50);
  const auto events = recorder.collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].dur_ns, 0u);
}

TEST(TraceTest, LongSpanNamesAreTruncatedNotOverflowed) {
  RecorderGuard guard;
  TraceRecorder recorder;
  const std::string long_name(200, 'x');
  recorder.record(long_name.c_str(), 1, 2);
  const auto events = recorder.collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_LT(events[0].name.size(), sizeof(TraceEvent{}.name));
  EXPECT_EQ(events[0].name, std::string(sizeof(TraceEvent{}.name) - 1, 'x'));
}

TEST(TraceTest, ChromeJsonIsWellFormedAndCarriesEvents) {
  RecorderGuard guard;
  TraceRecorder recorder;
  install_trace_recorder(&recorder);
  {
    ESSNS_TRACE_SPAN("chrome \"quoted\" span");
  }
  std::thread worker([] {
    set_thread_name("chrome-worker");
    ESSNS_TRACE_SPAN("worker-side");
  });
  worker.join();
  install_trace_recorder(nullptr);

  const std::string json = recorder.chrome_json();
  const testjson::Value root = testjson::parse(json);
  const auto& events = root.member("traceEvents").elements();
  // 2 thread_name metadata events + 2 complete events.
  ASSERT_EQ(events.size(), 4u);
  std::size_t metadata = 0;
  std::size_t complete = 0;
  for (const auto& event : events) {
    const std::string& ph = event.member("ph").string_value();
    if (ph == "M") {
      ++metadata;
      EXPECT_EQ(event.member("name").string_value(), "thread_name");
    } else {
      ASSERT_EQ(ph, "X");
      ++complete;
      EXPECT_GE(event.member("ts").number_value(), 0.0);
      EXPECT_GE(event.member("dur").number_value(), 0.0);
    }
  }
  EXPECT_EQ(metadata, 2u);
  EXPECT_EQ(complete, 2u);
  EXPECT_NE(json.find("chrome \\\"quoted\\\" span"), std::string::npos);
}

TEST(TraceTest, SpanTimerTimesWithoutRecorderAndRecordsWithOne) {
  RecorderGuard guard;
  install_trace_recorder(nullptr);
  SpanTimer untraced("untraced");
  EXPECT_GE(untraced.stop(), 0.0);

  TraceRecorder recorder;
  install_trace_recorder(&recorder);
  SpanTimer traced("traced");
  EXPECT_GE(traced.elapsed_seconds(), 0.0);
  const double first = traced.stop();
  EXPECT_GE(first, 0.0);
  traced.stop();  // second stop must not record again
  install_trace_recorder(nullptr);
  EXPECT_EQ(recorder.recorded(), 1u);
}

TEST(TraceTest, NewRecorderDoesNotInheritStaleThreadCache) {
  RecorderGuard guard;
  auto first = std::make_unique<TraceRecorder>();
  install_trace_recorder(first.get());
  { ESSNS_TRACE_SPAN("one"); }
  install_trace_recorder(nullptr);
  first.reset();

  // A second recorder — possibly at the same heap address — must register
  // this thread afresh (caches are keyed by recorder serial, not address).
  TraceRecorder second;
  install_trace_recorder(&second);
  { ESSNS_TRACE_SPAN("two"); }
  install_trace_recorder(nullptr);
  ASSERT_EQ(second.recorded(), 1u);
  EXPECT_EQ(second.collect()[0].name, "two");
}

TEST(TraceTest, WriteChromeJsonThrowsIoErrorOnBadPath) {
  TraceRecorder recorder;
  EXPECT_THROW(recorder.write_chrome_json("/nonexistent-dir/trace.json"),
               IoError);
}

TEST(ObsSessionTest, WritesBothFilesAndUninstalls) {
  RecorderGuard guard;
  const std::string trace_path = ::testing::TempDir() + "obs_session_t.json";
  const std::string metrics_path = ::testing::TempDir() + "obs_session_m.json";
  {
    ObsSession session(trace_path, metrics_path);
    EXPECT_TRUE(session.tracing());
    EXPECT_TRUE(session.metrics());
    EXPECT_TRUE(tracing_enabled());
    EXPECT_TRUE(metrics_enabled());
    { ESSNS_TRACE_SPAN("session-span"); }
    add_counter("session.counter", 3);
    session.finish();
    EXPECT_FALSE(tracing_enabled());
    EXPECT_FALSE(metrics_enabled());
    session.finish();  // idempotent
  }
  std::ifstream trace_in(trace_path);
  std::stringstream trace_text;
  trace_text << trace_in.rdbuf();
  const testjson::Value trace = testjson::parse(trace_text.str());
  EXPECT_GE(trace.member("traceEvents").elements().size(), 1u);

  std::ifstream metrics_in(metrics_path);
  std::stringstream metrics_text;
  metrics_text << metrics_in.rdbuf();
  const testjson::Value metrics = testjson::parse(metrics_text.str());
  EXPECT_EQ(metrics.member("counters").member("session.counter")
                .number_value(),
            3.0);
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

TEST(ObsSessionTest, EmptyAndNonePathsDisableWithoutTouchingGlobals) {
  RecorderGuard guard;
  // A bench-installed recorder must survive an inactive session.
  TraceRecorder external;
  install_trace_recorder(&external);
  {
    ObsSession session("", "none");
    EXPECT_FALSE(session.tracing());
    EXPECT_FALSE(session.metrics());
    EXPECT_EQ(trace_recorder(), &external);
    session.finish();
    EXPECT_EQ(trace_recorder(), &external);
  }
  install_trace_recorder(nullptr);
}

}  // namespace
}  // namespace essns::obs
