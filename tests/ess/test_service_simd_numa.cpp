// Service-level contracts for the SIMD relax-kernel and NUMA placement
// knobs: neither may ever change a result bit, at any worker count or mode
// combination; pinning/prefault bookkeeping must behave as documented; and
// the `simd=` / `numa=` RunSpec keys must parse into the knobs.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "ess/config.hpp"
#include "ess/simulation_service.hpp"
#include "synth/ground_truth.hpp"
#include "synth/workloads.hpp"

namespace essns::ess {
namespace {

class ServiceSimdNumaTest : public ::testing::Test {
 protected:
  ServiceSimdNumaTest() : workload_(synth::make_hills(32)) {
    Rng rng(5);
    truth_ = synth::generate_ground_truth(workload_.environment,
                                          workload_.truth_config, rng);
    Rng sample_rng(23);
    const auto& space = firelib::ScenarioSpace::table1();
    for (int i = 0; i < 10; ++i)
      scenarios_.push_back(space.sample(sample_rng));
  }

  std::vector<double> fitness_with(SimulationService& service) {
    return service.fitness_batch(scenarios_, truth_.fire_lines[0],
                                 truth_.fire_lines[1], 0.0,
                                 truth_.step_minutes);
  }

  synth::Workload workload_;
  synth::GroundTruth truth_;
  std::vector<firelib::Scenario> scenarios_;
};

TEST_F(ServiceSimdNumaTest, SimdKnobDefaultsAndResolution) {
  SimulationService service(workload_.environment, 1);
  EXPECT_EQ(service.simd_mode(), simd::Mode::kAuto);
  EXPECT_EQ(service.simd_isa(), simd::detected_isa());
  service.set_simd_mode(simd::Mode::kScalar);
  EXPECT_EQ(service.simd_isa(), simd::Isa::kScalar);
  service.set_simd_mode(simd::Mode::kAvx2);
  EXPECT_EQ(service.simd_isa(), simd::detected_isa());  // degrade, not trap
}

TEST_F(ServiceSimdNumaTest, FitnessBitIdenticalAcrossSimdModes) {
  // The scalar path is the oracle; every mode at every worker count must
  // reproduce it bitwise — including avx2 on hosts where it degrades.
  SimulationService oracle(workload_.environment, 1);
  oracle.set_simd_mode(simd::Mode::kScalar);
  const std::vector<double> expected = fitness_with(oracle);

  for (const simd::Mode mode :
       {simd::Mode::kAuto, simd::Mode::kAvx2, simd::Mode::kScalar}) {
    for (unsigned workers : {1u, 4u}) {
      SCOPED_TRACE(std::string(simd::to_string(mode)) + " workers=" +
                   std::to_string(workers));
      SimulationService service(workload_.environment, workers);
      service.set_simd_mode(mode);
      const std::vector<double> fitness = fitness_with(service);
      ASSERT_EQ(fitness.size(), expected.size());
      for (std::size_t i = 0; i < fitness.size(); ++i)
        EXPECT_EQ(fitness[i], expected[i]);  // bitwise, not approximate
    }
  }
}

TEST_F(ServiceSimdNumaTest, NumaModesNeverChangeResults) {
  SimulationService oracle(workload_.environment, 1);
  oracle.set_numa_mode(parallel::NumaMode::kOff);
  const std::vector<double> expected = fitness_with(oracle);

  for (const parallel::NumaMode mode :
       {parallel::NumaMode::kOff, parallel::NumaMode::kAuto,
        parallel::NumaMode::kOn}) {
    for (unsigned workers : {1u, 4u}) {
      SCOPED_TRACE(std::string(parallel::to_string(mode)) + " workers=" +
                   std::to_string(workers));
      SimulationService service(workload_.environment, workers);
      service.set_numa_mode(mode);
      const std::vector<double> fitness = fitness_with(service);
      ASSERT_EQ(fitness.size(), expected.size());
      for (std::size_t i = 0; i < fitness.size(); ++i)
        EXPECT_EQ(fitness[i], expected[i]);
    }
  }
}

TEST_F(ServiceSimdNumaTest, NumaOnPinsPoolWorkersButNeverTheMaster) {
  SimulationService service(workload_.environment, 4);
  service.set_numa_mode(parallel::NumaMode::kOn);
  EXPECT_TRUE(service.numa_active());  // kOn pins even on one node
  EXPECT_GE(service.numa_nodes(), 1u);
  EXPECT_EQ(service.workers_pinned(), 0u);  // placement is lazy
  fitness_with(service);
#if defined(__linux__)
  // Every pool worker that ran a task pinned; the batch of 10 over 4
  // workers touches all of them. The master (calling thread) never pins.
  EXPECT_GE(service.workers_pinned(), 1u);
  EXPECT_LE(service.workers_pinned(), 4u);
#else
  EXPECT_EQ(service.workers_pinned(), 0u);
#endif
}

TEST_F(ServiceSimdNumaTest, NumaAutoIsANoOpOnSingleSocket) {
  SimulationService service(workload_.environment, 4);
  ASSERT_EQ(service.numa_mode(), parallel::NumaMode::kAuto);
  if (service.numa_nodes() == 1) {
    EXPECT_FALSE(service.numa_active());
    fitness_with(service);
    EXPECT_EQ(service.workers_pinned(), 0u);
  } else {
    EXPECT_TRUE(service.numa_active());
  }
}

TEST_F(ServiceSimdNumaTest, SetNumaModeReArmsPlacement) {
  SimulationService service(workload_.environment, 2);
  // Placement happens on a worker's first task; with the step cache on, the
  // second batch below would be served as pure hits on the master thread
  // and no worker would ever run (and so never re-place).
  service.set_cache_policy(cache::CachePolicy::kOff);
  service.set_numa_mode(parallel::NumaMode::kOff);
  fitness_with(service);
  EXPECT_EQ(service.workers_pinned(), 0u);
  // Turning pinning on after workers already placed must re-place them.
  service.set_numa_mode(parallel::NumaMode::kOn);
  fitness_with(service);
#if defined(__linux__)
  EXPECT_GE(service.workers_pinned(), 1u);
#endif
}

TEST_F(ServiceSimdNumaTest, RunSpecParsesSimdAndNumaKeys) {
  EXPECT_EQ(parse_run_spec("").simd_mode, simd::Mode::kAuto);
  EXPECT_EQ(parse_run_spec("").numa_mode, parallel::NumaMode::kAuto);
  const RunSpec spec = parse_run_spec("simd=scalar\nnuma=on\n");
  EXPECT_EQ(spec.simd_mode, simd::Mode::kScalar);
  EXPECT_EQ(spec.numa_mode, parallel::NumaMode::kOn);
  EXPECT_EQ(parse_run_spec("simd=avx2\n").simd_mode, simd::Mode::kAvx2);
  EXPECT_EQ(parse_run_spec("numa=off\n").numa_mode, parallel::NumaMode::kOff);
  EXPECT_THROW(parse_run_spec("simd=sse\n"), InvalidArgument);
  EXPECT_THROW(parse_run_spec("numa=maybe\n"), InvalidArgument);
}

}  // namespace
}  // namespace essns::ess
