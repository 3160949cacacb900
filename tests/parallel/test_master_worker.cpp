#include "parallel/master_worker.hpp"

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "parallel/placement.hpp"

namespace essns::parallel {
namespace {

/// out[i] = fn(i) over `mw`'s lanes: the scatter/gather every caller does.
template <typename Fn>
std::vector<int> gather(MasterWorker& mw, const std::vector<int>& tasks,
                        Fn fn) {
  std::vector<int> out(tasks.size());
  mw.run(tasks.size(),
         [&](unsigned, std::size_t i) { out[i] = fn(tasks[i]); });
  return out;
}

TEST(MasterWorkerTest, ResultsComeBackInTaskOrder) {
  MasterWorker mw(4);
  std::vector<int> tasks;
  for (int i = 0; i < 100; ++i) tasks.push_back(i);
  const std::vector<int> results =
      gather(mw, tasks, [](int x) { return x * x; });
  ASSERT_EQ(results.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(results[static_cast<size_t>(i)], i * i);
}

TEST(MasterWorkerTest, EmptyBatch) {
  MasterWorker mw(2);
  bool ran = false;
  mw.run(0, [&](unsigned, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(MasterWorkerTest, SingleWorkerStillWorks) {
  MasterWorker mw(1);
  EXPECT_EQ(gather(mw, {1, 2, 3}, [](int x) { return x + 1; }),
            (std::vector<int>{2, 3, 4}));
}

TEST(MasterWorkerTest, MultipleBatchesReuseWorkers) {
  MasterWorker mw(3);
  const std::vector<std::thread::id> ids = mw.thread_ids();
  for (int round = 0; round < 5; ++round) {
    // A different function every batch: the lanes are not tied to one.
    const auto out = gather(mw, {round, round + 1},
                            [round](int x) { return x - 2 * round; });
    EXPECT_EQ(out[0], -round);
    EXPECT_EQ(out[1], 1 - round);
  }
  EXPECT_EQ(mw.thread_ids(), ids);
}

TEST(MasterWorkerTest, WorkerExceptionPropagatesAfterDrain) {
  MasterWorker mw(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(mw.run(4,
                      [&](unsigned, std::size_t i) {
                        ++ran;
                        if (i == 2) throw std::runtime_error("bad scenario");
                      }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 4);  // the batch drained before the rethrow
  // The pool must still be usable after a failed batch.
  EXPECT_EQ(gather(mw, {5}, [](int x) { return x; }), std::vector<int>{5});
}

TEST(MasterWorkerTest, LoadIsDistributed) {
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  MasterWorker mw(4);
  mw.run(64, [&](unsigned, std::size_t) {
    const int now = ++concurrent;
    int expected = peak.load();
    while (now > expected && !peak.compare_exchange_weak(expected, now)) {}
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    --concurrent;
  });
  std::size_t total = 0;
  for (unsigned w = 0; w < mw.lanes(); ++w) total += mw.processed_by(w);
  EXPECT_EQ(total, 64u);
  // With 4 workers and sleeping tasks, at least 2 ran concurrently
  // (scheduling-dependent; conservative bound even on one core).
  EXPECT_GE(peak.load(), 1);
}

TEST(MasterWorkerTest, WorkerIdWithinRange) {
  std::mutex mutex;
  std::set<unsigned> ids;
  MasterWorker mw(3);
  mw.run(50, [&](unsigned lane, std::size_t) {
    std::lock_guard lock(mutex);
    ids.insert(lane);
  });
  for (unsigned id : ids) EXPECT_LT(id, 3u);
}

TEST(MasterWorkerTest, RejectsZeroWorkers) {
  EXPECT_THROW(MasterWorker(0), InvalidArgument);
  EXPECT_THROW(MasterWorker(2, {0}), InvalidArgument);  // one CPU per lane
}

TEST(MasterWorkerTest, ProcessedByRejectsBadId) {
  MasterWorker mw(2);
  EXPECT_THROW(mw.processed_by(5), InvalidArgument);
}

TEST(MasterWorkerTest, HeavyPayloadRoundTrip) {
  // Simulation-map-sized payloads survive the scatter/gather.
  MasterWorker mw(2);
  const std::vector<std::vector<double>> tasks(
      10, std::vector<double>(4096, 0.5));
  std::vector<double> results(tasks.size());
  mw.run(tasks.size(), [&](unsigned, std::size_t i) {
    double sum = 0.0;
    for (double x : tasks[i]) sum += x;
    results[i] = sum;
  });
  for (double r : results) EXPECT_DOUBLE_EQ(r, 2048.0);
}

TEST(MasterWorkerTest, JobLanesAreNoneForOneWorker) {
  EXPECT_EQ(make_job_lanes(1), nullptr);
  const auto lanes = make_job_lanes(3);
  ASSERT_NE(lanes, nullptr);
  EXPECT_EQ(lanes->lanes(), 3u);
  EXPECT_TRUE(lanes->cpus().empty());
  EXPECT_THROW(make_job_lanes(0), InvalidArgument);
}

TEST(MasterWorkerTest, LanesRunOnTheirCpus) {
  const std::vector<int> allowed = allowed_cpus();
  ASSERT_FALSE(allowed.empty());
  const std::vector<int> cpus(2, allowed.back());  // both lanes, one CPU
  MasterWorker mw(2, cpus);
  EXPECT_EQ(mw.cpus(), cpus);
  std::vector<int> ran_on(8, -1);
  mw.run(ran_on.size(),
         [&](unsigned, std::size_t i) { ran_on[i] = sched_getcpu(); });
  for (const int cpu : ran_on) EXPECT_EQ(cpu, allowed.back());
}

TEST(MasterWorkerTest, RefusedPinLeavesTheLaneWorking) {
  // CPU_SETSIZE - 1 is outside any real affinity mask here, and -1 is no
  // CPU at all: both pins fail, and the lanes still run every task.
  MasterWorker mw(2, {CPU_SETSIZE - 1, -1});
  EXPECT_EQ(gather(mw, {1, 2, 3, 4}, [](int x) { return 2 * x; }),
            (std::vector<int>{2, 4, 6, 8}));
}

TEST(MasterWorkerTest, RecordsFanOutWhenMetricsAreOn) {
  MasterWorker mw(3);
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* const previous = obs::metrics_registry();
  obs::install_metrics_registry(&registry);
  for (int batch = 0; batch < 4; ++batch)
    mw.run(6, [](unsigned, std::size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    });
  mw.run(0, [](unsigned, std::size_t) {});  // an empty batch sends nothing
  obs::install_metrics_registry(previous);

  const obs::Histogram& lanes = registry.histogram("parallel.batch_lanes");
  EXPECT_EQ(lanes.count(), 4u);
  EXPECT_GE(lanes.min(), 1.0);
  EXPECT_LE(lanes.max(), 3.0);
  // One start per lane that ran, each a delay from the send.
  const obs::Histogram& starts = registry.histogram("parallel.lane_start_s");
  EXPECT_EQ(static_cast<double>(starts.count()), lanes.sum());
  EXPECT_GE(starts.min(), 0.0);
  EXPECT_LT(starts.max(), 10.0);
}

}  // namespace
}  // namespace essns::parallel
