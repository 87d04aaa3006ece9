#include "util/simd.hpp"

#include <cstdlib>
#include <cstring>

namespace nora::util::simd {

namespace {

Isa resolve() {
  // Explicit override first: NORA_FORCE_SCALAR=1 (or any non-empty value
  // other than "0") pins the scalar reference kernels.
  if (const char* force = std::getenv("NORA_FORCE_SCALAR");
      force != nullptr && *force != '\0' && std::strcmp(force, "0") != 0) {
    return Isa::kScalar;
  }
  if (supported(Isa::kAvx512)) return Isa::kAvx512;
  if (supported(Isa::kAvx2)) return Isa::kAvx2;
  return Isa::kScalar;
}

}  // namespace

bool supported(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#if defined(__AVX2__) && defined(__FMA__)
      // The AVX2 kernels use FMA intrinsics to mirror the contracted
      // scalar build, so both features must be present at runtime; the
      // compile-time guard keeps builds where the kernels are stubs on
      // the scalar path unconditionally.
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case Isa::kAvx512:
#if defined(__AVX512F__) && defined(__AVX2__) && defined(__FMA__)
      // The AVX-512 level still runs the AVX2-only kernels, so it needs
      // both feature sets.
      return supported(Isa::kAvx2) && __builtin_cpu_supports("avx512f");
#else
      return false;
#endif
  }
  return false;
}

Isa active() {
  static const Isa isa = resolve();
  return isa;
}

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kAvx512: return "avx512";
    case Isa::kAvx2: return "avx2";
    case Isa::kScalar: break;
  }
  return "scalar";
}

}  // namespace nora::util::simd
