// CPUID checks behind the kernels' vector bodies. Each body is compiled for
// its instruction set with a function-level target attribute and chosen
// once per process from these checks, so the build needs no -march flag.
#pragma once

namespace kernels {

/// True when this CPU reports AVX-512F (always false off x86-64).
inline bool cpu_has_avx512f() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

}  // namespace kernels
