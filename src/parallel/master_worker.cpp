#include "parallel/master_worker.hpp"

#include <string>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/placement.hpp"

namespace essns::parallel {

MasterWorker::MasterWorker(unsigned lanes, std::vector<int> cpus,
                           std::string name)
    : cpus_(std::move(cpus)), name_(std::move(name)), processed_(lanes) {
  ESSNS_REQUIRE(lanes >= 1, "need at least one worker");
  ESSNS_REQUIRE(cpus_.empty() || cpus_.size() == lanes,
                "one CPU per lane, or none");
  for (auto& counter : processed_) counter.store(0);
  threads_.reserve(lanes);
  for (unsigned lane = 0; lane < lanes; ++lane)
    threads_.emplace_back([this, lane] { lane_loop(lane); });
}

MasterWorker::~MasterWorker() {
  task_channel_.close();
  for (std::thread& t : threads_) t.join();
}

std::size_t MasterWorker::processed_by(unsigned lane) const {
  ESSNS_REQUIRE(lane < processed_.size(), "worker id out of range");
  return processed_[lane].load();
}

std::vector<std::thread::id> MasterWorker::thread_ids() const {
  std::vector<std::thread::id> ids;
  ids.reserve(threads_.size());
  for (const std::thread& t : threads_) ids.push_back(t.get_id());
  return ids;
}

void MasterWorker::run_erased(std::size_t n, const void* fn, Invoke invoke) {
  if (n == 0) return;
  Batch batch;
  batch.fn = fn;
  batch.invoke = invoke;
  batch.size = n;
  const bool observed = obs::metrics_enabled();
  if (observed) {
    batch.first_ns.assign(threads_.size(), 0);
    batch.sent_ns = obs::trace_now_ns();
  }
  for (std::size_t i = 0; i < n; ++i) {
    const bool sent = task_channel_.send(Envelope{&batch, i});
    ESSNS_REQUIRE(sent, "run on a stopped MasterWorker");
  }

  // The master blocks until every lane reported its tasks of this batch.
  std::unique_lock lock(batch.mutex);
  batch.done.wait(lock, [&] { return batch.completed == n; });
  if (observed) {
    unsigned used = 0;
    for (const std::uint64_t first : batch.first_ns) {
      if (first == 0) continue;
      ++used;
      obs::record_histogram(
          "parallel.lane_start_s",
          static_cast<double>(first - batch.sent_ns) * 1e-9);
    }
    obs::record_histogram("parallel.batch_lanes", used);
  }
  if (batch.error) std::rethrow_exception(batch.error);
}

void MasterWorker::lane_loop(unsigned lane) {
  // Label the lane in any current or future trace timeline.
  obs::set_thread_name(name_ + "-" + std::to_string(lane + 1));
  // A refused pin leaves the lane floating; it still serves every batch.
  if (lane < cpus_.size()) pin_current_thread(cpus_[lane]);

  while (auto envelope = task_channel_.receive()) {
    Batch& batch = *envelope->batch;
    if (!batch.first_ns.empty() && batch.first_ns[lane] == 0)
      batch.first_ns[lane] = obs::trace_now_ns();
    std::exception_ptr error;
    try {
      batch.invoke(batch.fn, lane, envelope->index);
    } catch (...) {
      error = std::current_exception();
    }
    processed_[lane].fetch_add(1, std::memory_order_relaxed);
    std::lock_guard lock(batch.mutex);
    if (error && !batch.error) batch.error = error;
    if (++batch.completed == batch.size) batch.done.notify_all();
  }
}

std::unique_ptr<MasterWorker> make_job_lanes(unsigned workers) {
  ESSNS_REQUIRE(workers >= 1, "need at least one worker");
  if (workers == 1) return nullptr;
  return std::make_unique<MasterWorker>(workers);
}

}  // namespace essns::parallel
