// Runtime-dispatched SIMD kernel selection.
//
// The analog hot loops (the panel-major tile MVM and its ADC epilogue,
// the DAC/quantizer pipeline, Gaussian scale/convert) each exist as a
// scalar reference and as vector implementations that are bit-identical
// by construction — every vector op is the IEEE-754 elementwise image
// of the scalar op sequence, including the FMA contractions GCC bakes
// into the scalar build (vfmadd/vfnmadd placement read off the
// disassembly and pinned by tests/test_simd_kernels.cpp).
//
// The ISA is resolved exactly once, on first use:
//   - NORA_FORCE_SCALAR=1 (env) forces the scalar variants — this is the
//     CI lever proving every path produces the same bits;
//   - otherwise the widest level the build and the CPU both support:
//     AVX-512F, then AVX2+FMA.
// Per-call dispatch is a single relaxed load of a cached enum, so the
// hot loops pay one predictable branch per MVM, not per element.
#pragma once

namespace nora::util::simd {

/// Ordered by width: a level implies every level below it.
enum class Isa {
  kScalar,  // portable reference path
  kAvx2,    // AVX2 + FMA vector kernels
  kAvx512,  // AVX-512F vector kernels (AVX2 kernels where none exists)
};

/// The ISA selected for this process (resolved once, then cached).
Isa active();

/// True when the kernels for `isa` are compiled into this build and the
/// CPU runs them (kScalar always). Ignores NORA_FORCE_SCALAR.
bool supported(Isa isa);

/// Human-readable name ("scalar" / "avx2" / "avx512") for logs and
/// bench output.
const char* isa_name(Isa isa);

/// True when AVX2 or a wider level is selected: the kernels that exist
/// only as AVX2 variants run on every vector level.
inline bool use_avx2() { return active() >= Isa::kAvx2; }

}  // namespace nora::util::simd
