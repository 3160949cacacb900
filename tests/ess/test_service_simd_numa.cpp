// Service-level contracts for the SIMD relax-kernel knob: it may never
// change a result bit, at any worker count or mode, and the `simd=` RunSpec
// key must parse into it.
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

TEST_F(ServiceSimdNumaTest, RunSpecParsesSimdAndNumaKeys) {
  EXPECT_EQ(parse_run_spec("").simd_mode, simd::Mode::kAuto);
  EXPECT_EQ(parse_run_spec("simd=scalar\n").simd_mode, simd::Mode::kScalar);
  EXPECT_EQ(parse_run_spec("simd=avx2\n").simd_mode, simd::Mode::kAvx2);
  EXPECT_THROW(parse_run_spec("simd=sse\n"), InvalidArgument);
  // NUMA placement is gone: `numa=` no longer parses, at any value.
  EXPECT_THROW(parse_run_spec("numa=on\n"), InvalidArgument);
}

}  // namespace
}  // namespace essns::ess
