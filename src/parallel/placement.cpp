#include "parallel/placement.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <utility>

namespace essns::parallel {

std::vector<std::vector<int>> assign_lane_cpus(const std::vector<int>& free,
                                               unsigned slots,
                                               unsigned lanes) {
  std::vector<std::vector<int>> cpus(slots);
  if (static_cast<std::size_t>(slots) * lanes > free.size()) return cpus;
  for (unsigned s = 0; s < slots; ++s) {
    const auto first = free.begin() + static_cast<std::ptrdiff_t>(s * lanes);
    cpus[s].assign(first, first + lanes);
  }
  return cpus;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  return cpus;
}

bool pin_current_thread(int cpu) {
  if (cpu < 0 || cpu >= CPU_SETSIZE) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

CpuLease::CpuLease(CpuLease&& other) noexcept
    : owner_(std::exchange(other.owner_, nullptr)),
      slots_(std::move(other.slots_)) {}

CpuLease& CpuLease::operator=(CpuLease&& other) noexcept {
  if (this != &other) {
    release();
    owner_ = std::exchange(other.owner_, nullptr);
    slots_ = std::move(other.slots_);
  }
  return *this;
}

CpuLease::~CpuLease() { release(); }

std::vector<int> CpuLease::slot_cpus(unsigned slot) const {
  return slot < slots_.size() ? slots_[slot] : std::vector<int>{};
}

void CpuLease::release() {
  if (owner_) owner_->release(slots_);
  owner_ = nullptr;
  slots_.clear();
}

CpuAllocator::CpuAllocator(std::vector<int> allowed)
    : free_(std::move(allowed)) {
  std::sort(free_.begin(), free_.end());
  free_.erase(std::unique(free_.begin(), free_.end()), free_.end());
}

CpuAllocator& CpuAllocator::process() {
  static CpuAllocator allocator(allowed_cpus());
  return allocator;
}

CpuLease CpuAllocator::acquire(unsigned slots, unsigned lanes) {
  std::lock_guard lock(mutex_);
  std::vector<std::vector<int>> cpus = assign_lane_cpus(free_, slots, lanes);
  if (cpus.empty() || cpus[0].empty()) return {};
  for (const std::vector<int>& slot : cpus)
    for (const int cpu : slot)
      free_.erase(std::find(free_.begin(), free_.end(), cpu));
  return CpuLease(this, std::move(cpus));
}

std::vector<int> CpuAllocator::free_cpus() const {
  std::lock_guard lock(mutex_);
  return free_;
}

void CpuAllocator::release(const std::vector<std::vector<int>>& slots) {
  std::lock_guard lock(mutex_);
  for (const std::vector<int>& slot : slots)
    free_.insert(free_.end(), slot.begin(), slot.end());
  std::sort(free_.begin(), free_.end());
}

}  // namespace essns::parallel
