// Runtime SIMD capability detection and the relax-kernel mode of the
// propagator. Every production sweep runs `auto`; the propagator tests
// force `scalar` to compare the picked kernel with it.
//
// The sweep's vectorized relax kernel (firelib/relax_kernel.hpp) is compiled
// with per-function target attributes, so the binary always carries both the
// AVX2 and the scalar inner loop and picks one at runtime: `auto` takes
// whatever the CPU reports (cpuid via __builtin_cpu_supports; scalar on
// hosts without AVX2+FMA, never an illegal instruction), and `scalar`
// forces the bit-exactness oracle. Both kernels compute identical IEEE
// arithmetic, so results are bit-identical no matter how the mode resolves.
#pragma once

#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
#define ESSNS_SIMD_X86_AVX2 1
#endif

namespace essns::simd {

/// FirePropagator::set_simd_mode's argument.
enum class Mode { kAuto, kScalar };

/// What the sweep actually runs after runtime dispatch.
enum class Isa { kScalar, kAvx2 };

/// cpuid-backed detection, evaluated once. The vector kernel uses AVX2
/// gathers and FMA-set registers, so both flags are required.
inline bool cpu_supports_avx2() {
#if defined(ESSNS_SIMD_X86_AVX2)
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return supported;
#else
  return false;
#endif
}

inline Isa detected_isa() {
  return cpu_supports_avx2() ? Isa::kAvx2 : Isa::kScalar;
}

/// Runtime dispatch: what `mode` runs on this host.
inline Isa resolve(Mode mode) {
  return mode == Mode::kScalar ? Isa::kScalar : detected_isa();
}

}  // namespace essns::simd
