// Runtime SIMD capability detection and the relax-kernel mode of the
// propagator. Every production sweep runs `auto`; the propagator tests and
// bench_sweep (`--simd`) force a kernel to compare it with the other.
//
// The sweep's vectorized relax kernel (firelib/relax_kernel.hpp) is compiled
// with per-function target attributes, so the binary always carries both the
// AVX2 and the scalar inner loop and picks one at runtime: `auto` takes
// whatever the CPU reports (cpuid via __builtin_cpu_supports), `avx2` asks
// for the vector kernel but still degrades to scalar on hosts without
// AVX2+FMA (a clean fallback, never an illegal instruction), and `scalar`
// forces the bit-exactness oracle. Both kernels compute identical IEEE
// arithmetic, so results are bit-identical no matter how the mode resolves.
#pragma once

#include <optional>
#include <string>

#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
#define ESSNS_SIMD_X86_AVX2 1
#endif

namespace essns::simd {

/// FirePropagator::set_simd_mode's argument (bench_sweep's
/// `--simd auto|avx2|scalar`).
enum class Mode { kAuto, kAvx2, kScalar };

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

/// Runtime dispatch: what `mode` runs on this host. Requesting avx2 on a
/// host without it falls back to scalar rather than failing.
inline Isa resolve(Mode mode) {
  switch (mode) {
    case Mode::kScalar: return Isa::kScalar;
    case Mode::kAvx2:
    case Mode::kAuto: return detected_isa();
  }
  return Isa::kScalar;
}

inline const char* to_string(Mode mode) {
  switch (mode) {
    case Mode::kAuto: return "auto";
    case Mode::kAvx2: return "avx2";
    case Mode::kScalar: return "scalar";
  }
  return "auto";
}

inline const char* to_string(Isa isa) {
  return isa == Isa::kAvx2 ? "avx2" : "scalar";
}

inline std::optional<Mode> parse_simd_mode(const std::string& text) {
  if (text == "auto") return Mode::kAuto;
  if (text == "avx2") return Mode::kAvx2;
  if (text == "scalar") return Mode::kScalar;
  return std::nullopt;
}

}  // namespace essns::simd
