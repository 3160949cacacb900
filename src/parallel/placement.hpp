// Lane placement: which CPU each simulation lane runs on.
//
// Left to the scheduler, the lanes of one Master/Worker pool often end up
// time-sliced on one CPU, and a batch then runs serially however many
// lanes it has. Pinning each lane to a CPU of its own fixes that — but only
// while the lanes fit: pinning more lanes than there are CPUs, or two
// pools to the same CPUs, would stack them by construction. So CPUs are
// handed out by one process-wide CpuAllocator over the CPUs the process may
// run on (sched_getaffinity, read once): every lane of every pool gets a
// distinct CPU while slots x lanes fit in the CPUs still free, and no lane
// is pinned beyond that. A lease returns its CPUs when it is destroyed.
//
// Only simulation lanes are placed; engine slot threads, masters and I/O
// threads float.
#pragma once

#include <mutex>
#include <vector>

namespace essns::parallel {

/// CPUs for `slots` pools of `lanes` lanes each, taken in order from
/// `free`: slot s, lane i gets free[s * lanes + i]. When slots x lanes
/// exceeds free.size() no lane is pinned and every slot's list is empty.
std::vector<std::vector<int>> assign_lane_cpus(const std::vector<int>& free,
                                               unsigned slots, unsigned lanes);

/// The CPUs the calling thread may run on, ascending (sched_getaffinity);
/// empty if the OS does not say.
std::vector<int> allowed_cpus();

/// Pin the calling thread to `cpu`; false (the thread stays as it was) when
/// the OS refuses or the CPU is out of range.
bool pin_current_thread(int cpu);

class CpuAllocator;

/// The CPUs one engine's lane pools hold: slot_cpus(s) for slot s (empty
/// when unplaced). Releases them to the allocator on destruction.
class CpuLease {
 public:
  CpuLease() = default;
  CpuLease(CpuLease&& other) noexcept;
  CpuLease& operator=(CpuLease&& other) noexcept;
  ~CpuLease();

  /// Slot s's lane CPUs; empty when the lease placed nothing.
  std::vector<int> slot_cpus(unsigned slot) const;

 private:
  friend class CpuAllocator;
  CpuLease(CpuAllocator* owner, std::vector<std::vector<int>> slots)
      : owner_(owner), slots_(std::move(slots)) {}
  void release();

  CpuAllocator* owner_ = nullptr;
  std::vector<std::vector<int>> slots_;
};

class CpuAllocator {
 public:
  /// Hands out CPUs from `allowed` (tests pass synthetic sets).
  explicit CpuAllocator(std::vector<int> allowed);

  /// The process-wide allocator over allowed_cpus() at first use.
  static CpuAllocator& process();

  /// Distinct CPUs for `slots` pools of `lanes` lanes from the CPUs no live
  /// lease holds (assign_lane_cpus over them); an empty lease when they do
  /// not fit. The allocator must outlive the lease.
  CpuLease acquire(unsigned slots, unsigned lanes);

  /// CPUs not held by a live lease, ascending.
  std::vector<int> free_cpus() const;

 private:
  friend class CpuLease;
  void release(const std::vector<std::vector<int>>& slots);

  mutable std::mutex mutex_;
  std::vector<int> free_;  ///< ascending
};

}  // namespace essns::parallel
