#pragma once

/// \file simd.hpp
/// Runtime-dispatched SIMD primitives for the O(2^n) amplitude sweeps.
///
/// The sweep kernels in kernels.hpp decompose every gate application into
/// contiguous runs of interleaved complex doubles (re, im, re, im, ...) and
/// hand each run to one of the primitives below. The primitives come in
/// three implementations — scalar, AVX2, AVX-512 — selected once per
/// process by runtime CPU detection (overridable via QMPI_SIMD), so one
/// binary serves any x86-64 host.
///
/// Numerical contract: every implementation performs the exact textbook
/// complex arithmetic of the scalar reference — (a*b).re = a.re*b.re -
/// a.im*b.im computed as two multiplies and one subtract, never a fused
/// multiply-add — and simd.cpp is compiled with -ffp-contract=off so the
/// compiler cannot re-fuse it. On default builds (no -march flags) the
/// scalar kernels cannot be contracted either, so vector and scalar paths
/// produce bit-identical amplitudes; with exotic flags the guaranteed
/// bound is <= 1e-12 (see docs/ARCHITECTURE.md, "Kernel dispatch & SIMD").
///
/// Layout contract: amplitudes are std::complex<double> arrays — two
/// interleaved doubles per amplitude, 16-byte aligned by the allocator.
/// The primitives use unaligned loads/stores, so callers may pass runs
/// starting at any amplitude offset (runs split on compressed-index
/// boundaries, which land on arbitrary addresses).

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "sim/gates.hpp"

namespace qmpi::sim::simd {

/// Instruction-set tier of a kernel implementation, ordered by preference.
enum class Isa : std::uint8_t {
  kScalar = 0,  ///< portable reference; the bit-identity baseline
  kAvx2 = 1,    ///< 256-bit: 2 complex doubles per op
  kAvx512 = 2,  ///< 512-bit: 4 complex doubles per op (needs F+DQ+VL)
};

/// What the user asked for via QMPI_SIMD (kAuto = best available).
enum class Request : std::uint8_t { kAuto, kScalar, kAvx2, kAvx512 };

const char* to_string(Isa isa);

/// True when this CPU can execute the given tier (cpuid-style detection;
/// kScalar is always available, and on non-x86 builds nothing else is).
bool available(Isa isa);

/// The highest available tier on this CPU.
Isa best_available();

/// Strict parse of a QMPI_SIMD value ("auto", "scalar", "avx2", "avx512").
/// Returns false on anything else so the caller can fail loud — garbage
/// must never silently change what a benchmark measures.
bool parse_request(std::string_view text, Request& out);

/// Outcome of resolving a request against this CPU: the tier that will
/// actually run, plus a human-readable notice when the request named an
/// unavailable ISA and execution fell back (empty otherwise). Requesting
/// unavailable hardware is not an error — the same QMPI_SIMD=avx512 job
/// script must run on an AVX2-only node — but it is recorded, so a perf
/// record can never silently claim an ISA that never executed.
struct Selection {
  Isa isa = Isa::kScalar;
  std::string notice;
};
Selection resolve(Request request);

/// Forces the active tier for this process. Throws SimulatorError when the
/// tier is not available on this CPU (tests and the paritycheck use this
/// to force a specific variant; use resolve() for fallback semantics).
void set_active(Isa isa);

/// The active tier. Initialized lazily on first use from QMPI_SIMD (with
/// resolve() fallback semantics; a malformed value throws SimulatorError),
/// so standalone Backend users — benchmarks, tests — honor the override
/// without going through JobOptions. take_env_notice() returns the
/// fallback notice from that lazy initialization, if any, exactly once.
Isa active();
std::string take_env_notice();

/// Function-pointer table of the vector primitives for one tier. All
/// pointers operate on `n` complex amplitudes and tolerate n == 0; `dst`
/// and `src` ranges must not overlap (pair primitives take two disjoint
/// runs of the same length, typically `stride` amplitudes apart).
struct Ops {
  Isa isa = Isa::kScalar;
  /// p[i] *= f
  void (*scale)(Complex* p, std::size_t n, Complex f);
  /// dst[i] = f * src[i]
  void (*scale_copy)(Complex* dst, const Complex* src, std::size_t n,
                     Complex f);
  /// acc[i] += f * x[i]
  void (*axpy)(Complex* acc, const Complex* x, std::size_t n, Complex f);
  /// {a[i], b[i]} = {m00*a[i] + m01*b[i], m10*a[i] + m11*b[i]}
  void (*pair_dense)(Complex* a, Complex* b, std::size_t n, Complex m00,
                     Complex m01, Complex m10, Complex m11);
  /// {a[i], b[i]} = {m01*b[i], m10*a[i]}
  void (*pair_antidiag)(Complex* a, Complex* b, std::size_t n, Complex m01,
                        Complex m10);
  /// swap(a[i], b[i]) — X/CNOT permutation runs
  void (*swap_halves)(Complex* a, Complex* b, std::size_t n);
};

/// Primitive table for an explicit tier (identity tests sweep these).
const Ops& ops_for(Isa isa);

/// Primitive table for the active tier.
inline const Ops& ops() { return ops_for(active()); }

/// Below this run length (in amplitudes) a sweep cannot hand its state
/// runs to the primitives directly: a function-pointer call per 1-2
/// amplitudes costs more than the vector lanes recover, and the AVX-512
/// path wants at least one full 4-amplitude vector. Sweeps whose fixed
/// bits (block and control bits) all sit at positions >= 2 clear it.
/// Below it the replay (kernels::run_block_ops_sweep) gathers a row tile
/// of consecutive blocks so each row is a long run again — lone gates
/// and fused clusters alike.
inline constexpr std::size_t kMinRun = 4;

}  // namespace qmpi::sim::simd
