// Master/Worker lane pool: the parallel pattern of Fig. 1 / Fig. 3 of the
// paper (OS-Master distributing parameter vectors PV{1..n} to OS-Worker x).
//
// A MasterWorker is a set of persistent worker threads, its lanes. The
// master scatters a batch — n task indices plus the function that runs
// them — through a channel (the MPI-substitute messaging layer) and blocks
// until every task ran; results go wherever the function writes them, so a
// caller that writes slot i of a vector gathers in task order. The function
// is passed per batch, not fixed at construction, so the same lanes serve
// batch after batch and job after job: a service::PredictionEngine slot
// keeps one pool for its whole life instead of spawning threads per job.
//
// Placement is data: a pool may be given one CPU per lane, and each lane
// pins itself to its CPU when it starts (parallel/placement.hpp decides
// which CPUs). A pin the OS refuses leaves that lane unpinned; it is not an
// error. Without CPUs the lanes float, as a job-local pool's do.
//
// With a metrics registry installed, every batch records how far it fanned
// out: `parallel.batch_lanes` (lanes that ran at least one task) and, per
// such lane, `parallel.lane_start_s` (seconds from the send to the lane's
// first task).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "parallel/channel.hpp"

namespace essns::parallel {

class MasterWorker {
 public:
  /// `lanes` worker threads (>= 1). `cpus`, when not empty, holds one CPU
  /// per lane; lane i pins itself to cpus[i] when it starts. Lane i is
  /// named `<name>-<i+1>` in trace timelines, so pools that live side by
  /// side (one per engine slot) pass distinct names.
  explicit MasterWorker(unsigned lanes, std::vector<int> cpus = {},
                        std::string name = "sim-worker");
  ~MasterWorker();

  MasterWorker(const MasterWorker&) = delete;
  MasterWorker& operator=(const MasterWorker&) = delete;

  unsigned lanes() const { return static_cast<unsigned>(threads_.size()); }

  /// Run fn(lane, i) for every i in [0, n) on the lanes, and block until
  /// all n ran. `fn` must be safe to call concurrently from different lanes.
  /// Rethrows the first task exception once the whole batch has drained;
  /// the lanes stay usable. Reentrant but not concurrent: one master drives
  /// a pool at a time (as in the paper's OS-Master).
  template <typename Fn>
  void run(std::size_t n, const Fn& fn) {
    run_erased(n, &fn, [](const void* f, unsigned lane, std::size_t i) {
      (*static_cast<const Fn*>(f))(lane, i);
    });
  }

  /// Tasks lane `lane` ran since construction (load-balance metric).
  std::size_t processed_by(unsigned lane) const;

  /// The CPUs the lanes were given; empty when unplaced.
  const std::vector<int>& cpus() const { return cpus_; }

  /// The lanes' thread ids, in lane order (stable for the pool's life).
  std::vector<std::thread::id> thread_ids() const;

 private:
  using Invoke = void (*)(const void*, unsigned, std::size_t);

  struct Batch {
    const void* fn = nullptr;
    Invoke invoke = nullptr;
    std::size_t size = 0;
    /// Fan-out bookkeeping, filled only while metrics are on: the send
    /// time and, per lane, the start of its first task (0 = none). Lane i
    /// writes only first_ns[i]; the master reads after the batch drains.
    std::uint64_t sent_ns = 0;
    std::vector<std::uint64_t> first_ns;
    std::mutex mutex;
    std::condition_variable done;
    std::size_t completed = 0;
    std::exception_ptr error;
  };

  struct Envelope {
    Batch* batch;
    std::size_t index;
  };

  void run_erased(std::size_t n, const void* fn, Invoke invoke);
  void lane_loop(unsigned lane);

  std::vector<int> cpus_;
  std::string name_;
  Channel<Envelope> task_channel_;
  std::vector<std::atomic<std::size_t>> processed_;
  std::vector<std::thread> threads_;
};

/// A job-local pool of `workers` unplaced lanes, or null when workers == 1
/// (the job then runs every simulation inline on its own thread).
std::unique_ptr<MasterWorker> make_job_lanes(unsigned workers);

}  // namespace essns::parallel
