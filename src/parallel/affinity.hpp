// NUMA-aware worker placement: topology discovery and thread pinning for
// the SimulationService worker pool (`--numa` knob).
//
// Multi-socket hosts bounce ignition maps across the interconnect when the
// scheduler migrates sweep workers between nodes: every PropagationWorkspace
// slab (times, epochs, buckets, terrain fields) is allocated — and
// therefore first-touched — by its owning worker thread, so the pages land
// on whichever node that thread happened to run on, and a later migration
// turns every slab access into a remote read. Pinning each worker to one
// node's cpuset (not to a single cpu — concurrent campaign jobs would
// otherwise stack their workers onto the same cores) keeps thread and
// memory on the same node for the worker's whole lifetime.
//
// Discovery reads /sys/devices/system/node directly — no libnuma
// dependency; hosts without the sysfs tree (non-Linux, stripped containers)
// degrade to a single node covering every cpu, which makes kAuto a no-op
// exactly as single-socket behavior should be.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace essns::parallel {

/// The `--numa` knob: kOff never pins, kOn always pins (on a single-socket
/// host that still binds each worker to the one node — a scheduling no-op
/// that exercises the code path), kAuto pins only when the host actually
/// has more than one NUMA node.
enum class NumaMode { kOff, kAuto, kOn };

const char* to_string(NumaMode mode);
std::optional<NumaMode> parse_numa_mode(const std::string& text);

struct NumaNode {
  int id = 0;
  std::vector<int> cpus;  ///< ascending cpu ids local to this node
};

struct NumaTopology {
  std::vector<NumaNode> nodes;  ///< ascending node id

  std::size_t node_count() const { return nodes.size(); }
  std::size_t cpu_count() const;
};

/// Parse a sysfs cpulist ("0-3,8,10-11") into ascending cpu ids. Throws
/// InvalidArgument on malformed input; an empty/whitespace list is empty
/// (memoryless nodes report an empty cpulist).
std::vector<int> parse_cpu_list(const std::string& text);

/// Fresh discovery from /sys/devices/system/node; falls back to one node
/// holding hardware_concurrency cpus when the sysfs tree is unavailable.
/// Never returns an empty topology.
NumaTopology discover_numa_topology();

/// discover_numa_topology(), evaluated once and cached for the process.
const NumaTopology& system_numa_topology();

/// Bind the calling thread to `cpus` (sched_setaffinity). Returns false on
/// non-Linux builds, an empty cpu list, or a rejected syscall — callers
/// treat a failed pin as "run unpinned", never as an error.
bool pin_current_thread_to_cpus(const std::vector<int>& cpus);

/// Whether `mode` asks for pinning on this `topology`.
bool numa_pinning_active(NumaMode mode, const NumaTopology& topology);

/// Round-robin node assignment for worker `worker` (0-based).
std::size_t node_for_worker(const NumaTopology& topology, unsigned worker);

}  // namespace essns::parallel
