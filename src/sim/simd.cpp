#include "sim/simd.hpp"

#include <atomic>
#include <utility>

#include "classical/error.hpp"
#include "core/env.hpp"
#include "core/sync.hpp"
#include "sim/backend.hpp"  // SimulatorError

// x86-64 with a GNU-compatible compiler: the vector variants are compiled
// with per-function target attributes, so the translation unit itself
// still targets baseline x86-64 and the binary runs anywhere — only the
// runtime dispatch decides whether the AVX code paths ever execute.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define QMPI_SIMD_X86 1
#include <immintrin.h>
#else
#define QMPI_SIMD_X86 0
#endif

namespace qmpi::sim::simd {

namespace {

// ------------------------------------------------------------- scalar ---
//
// The reference implementations. The complex multiply is written out as
// explicit double arithmetic — the exact formula libstdc++'s operator*
// inlines for finite values — so the vector variants below can mirror it
// operation for operation. This file is compiled with -ffp-contract=off
// (see CMakeLists.txt), so none of these expressions can be fused into
// FMAs behind our back.

inline Complex cmul(Complex a, Complex f) {
  return Complex(a.real() * f.real() - a.imag() * f.imag(),
                 a.real() * f.imag() + a.imag() * f.real());
}

// noinline is load-bearing: the vector variants call these for their <= 3
// amplitude tails, and GCC's vectorizer pattern-matches an inlined complex
// multiply into vfmaddsub *even under -ffp-contract=off* once the caller's
// target enables AVX-512 (observed with GCC 12). Compiled standalone these
// functions target baseline x86-64, whose ISA simply has no FMA, so the
// tail arithmetic provably matches the scalar tier. The call cost is
// irrelevant at tail lengths.

__attribute__((noinline)) void scale_scalar(Complex* p, std::size_t n,
                                            Complex f) {
  for (std::size_t i = 0; i < n; ++i) p[i] = cmul(p[i], f);
}

__attribute__((noinline)) void pair_dense_scalar(Complex* a, Complex* b,
                                                 std::size_t n, Complex m00,
                                                 Complex m01, Complex m10,
                                                 Complex m11) {
  for (std::size_t i = 0; i < n; ++i) {
    const Complex a0 = a[i];
    const Complex a1 = b[i];
    a[i] = cmul(a0, m00) + cmul(a1, m01);
    b[i] = cmul(a0, m10) + cmul(a1, m11);
  }
}

__attribute__((noinline)) void pair_antidiag_scalar(Complex* a, Complex* b,
                                                    std::size_t n,
                                                    Complex m01,
                                                    Complex m10) {
  for (std::size_t i = 0; i < n; ++i) {
    const Complex a0 = a[i];
    a[i] = cmul(b[i], m01);
    b[i] = cmul(a0, m10);
  }
}

__attribute__((noinline)) void swap_halves_scalar(Complex* a, Complex* b,
                                                  std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) std::swap(a[i], b[i]);
}

constexpr Ops kScalarOps = {
    Isa::kScalar, scale_scalar, pair_dense_scalar, pair_antidiag_scalar,
    swap_halves_scalar,
};

#if QMPI_SIMD_X86

// --------------------------------------------------------------- AVX2 ---
//
// 2 complex doubles per 256-bit vector. For v = [ar, ai, br, bi] and a
// broadcast factor f, the product is
//   t1 = v * [fr, fr, fr, fr]
//   t2 = swap_pairs(v) * [fi, fi, fi, fi]
//   addsub(t1, t2) = [ar*fr - ai*fi, ai*fr + ar*fi, ...]
// — one multiply and one add/sub per output double, the same rounding
// sequence as the scalar formula, so the results are bit-identical.

__attribute__((target("avx2"))) inline __m256d cmul2(__m256d v, __m256d fr,
                                                     __m256d fi) {
  const __m256d vs = _mm256_permute_pd(v, 0b0101);
  return _mm256_addsub_pd(_mm256_mul_pd(v, fr), _mm256_mul_pd(vs, fi));
}

__attribute__((target("avx2"))) void scale_avx2(Complex* p, std::size_t n,
                                                Complex f) {
  double* d = reinterpret_cast<double*>(p);
  const __m256d fr = _mm256_set1_pd(f.real());
  const __m256d fi = _mm256_set1_pd(f.imag());
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm256_storeu_pd(d + 2 * i, cmul2(_mm256_loadu_pd(d + 2 * i), fr, fi));
  }
  if (i < n) scale_scalar(p + i, n - i, f);
}

__attribute__((target("avx2"))) void pair_dense_avx2(Complex* a, Complex* b,
                                                     std::size_t n,
                                                     Complex m00, Complex m01,
                                                     Complex m10,
                                                     Complex m11) {
  double* pa = reinterpret_cast<double*>(a);
  double* pb = reinterpret_cast<double*>(b);
  const __m256d r00 = _mm256_set1_pd(m00.real()), i00 = _mm256_set1_pd(m00.imag());
  const __m256d r01 = _mm256_set1_pd(m01.real()), i01 = _mm256_set1_pd(m01.imag());
  const __m256d r10 = _mm256_set1_pd(m10.real()), i10 = _mm256_set1_pd(m10.imag());
  const __m256d r11 = _mm256_set1_pd(m11.real()), i11 = _mm256_set1_pd(m11.imag());
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d va = _mm256_loadu_pd(pa + 2 * i);
    const __m256d vb = _mm256_loadu_pd(pb + 2 * i);
    _mm256_storeu_pd(pa + 2 * i, _mm256_add_pd(cmul2(va, r00, i00),
                                               cmul2(vb, r01, i01)));
    _mm256_storeu_pd(pb + 2 * i, _mm256_add_pd(cmul2(va, r10, i10),
                                               cmul2(vb, r11, i11)));
  }
  if (i < n) pair_dense_scalar(a + i, b + i, n - i, m00, m01, m10, m11);
}

__attribute__((target("avx2"))) void pair_antidiag_avx2(Complex* a, Complex* b,
                                                        std::size_t n,
                                                        Complex m01,
                                                        Complex m10) {
  double* pa = reinterpret_cast<double*>(a);
  double* pb = reinterpret_cast<double*>(b);
  const __m256d r01 = _mm256_set1_pd(m01.real()), i01 = _mm256_set1_pd(m01.imag());
  const __m256d r10 = _mm256_set1_pd(m10.real()), i10 = _mm256_set1_pd(m10.imag());
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d va = _mm256_loadu_pd(pa + 2 * i);
    const __m256d vb = _mm256_loadu_pd(pb + 2 * i);
    _mm256_storeu_pd(pa + 2 * i, cmul2(vb, r01, i01));
    _mm256_storeu_pd(pb + 2 * i, cmul2(va, r10, i10));
  }
  if (i < n) pair_antidiag_scalar(a + i, b + i, n - i, m01, m10);
}

__attribute__((target("avx2"))) void swap_halves_avx2(Complex* a, Complex* b,
                                                      std::size_t n) {
  double* pa = reinterpret_cast<double*>(a);
  double* pb = reinterpret_cast<double*>(b);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d va = _mm256_loadu_pd(pa + 2 * i);
    const __m256d vb = _mm256_loadu_pd(pb + 2 * i);
    _mm256_storeu_pd(pa + 2 * i, vb);
    _mm256_storeu_pd(pb + 2 * i, va);
  }
  if (i < n) swap_halves_scalar(a + i, b + i, n - i);
}

constexpr Ops kAvx2Ops = {
    Isa::kAvx2, scale_avx2, pair_dense_avx2, pair_antidiag_avx2,
    swap_halves_avx2,
};

// ------------------------------------------------------------ AVX-512 ---
//
// 4 complex doubles per 512-bit vector. AVX-512 has no addsub, so the
// imaginary broadcast carries alternating signs instead: for lane pair
// (re, im) the factor vector is (-fi, +fi), and
//   t1 + swap_pairs(v) * [-fi, +fi, ...]
// computes [ar*fr - ai*fi, ai*fr + ar*fi, ...]. IEEE multiplication by a
// negated factor is an exact sign flip and IEEE addition is commutative,
// so the rounding matches the scalar formula bit for bit.

#define QMPI_AVX512_TARGET target("avx512f,avx512dq,avx512vl")

__attribute__((QMPI_AVX512_TARGET)) inline __m512d cmul4(__m512d v,
                                                         __m512d fr,
                                                         __m512d fi_alt) {
  const __m512d vs = _mm512_permute_pd(v, 0x55);
  return _mm512_add_pd(_mm512_mul_pd(v, fr), _mm512_mul_pd(vs, fi_alt));
}

__attribute__((QMPI_AVX512_TARGET)) inline __m512d fi_alt_of(double im) {
  return _mm512_set_pd(im, -im, im, -im, im, -im, im, -im);
}

__attribute__((QMPI_AVX512_TARGET)) void scale_avx512(Complex* p,
                                                      std::size_t n,
                                                      Complex f) {
  double* d = reinterpret_cast<double*>(p);
  const __m512d fr = _mm512_set1_pd(f.real());
  const __m512d fi = fi_alt_of(f.imag());
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm512_storeu_pd(d + 2 * i, cmul4(_mm512_loadu_pd(d + 2 * i), fr, fi));
  }
  if (i < n) scale_scalar(p + i, n - i, f);
}

__attribute__((QMPI_AVX512_TARGET)) void pair_dense_avx512(
    Complex* a, Complex* b, std::size_t n, Complex m00, Complex m01,
    Complex m10, Complex m11) {
  double* pa = reinterpret_cast<double*>(a);
  double* pb = reinterpret_cast<double*>(b);
  const __m512d r00 = _mm512_set1_pd(m00.real()), i00 = fi_alt_of(m00.imag());
  const __m512d r01 = _mm512_set1_pd(m01.real()), i01 = fi_alt_of(m01.imag());
  const __m512d r10 = _mm512_set1_pd(m10.real()), i10 = fi_alt_of(m10.imag());
  const __m512d r11 = _mm512_set1_pd(m11.real()), i11 = fi_alt_of(m11.imag());
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m512d va = _mm512_loadu_pd(pa + 2 * i);
    const __m512d vb = _mm512_loadu_pd(pb + 2 * i);
    _mm512_storeu_pd(pa + 2 * i, _mm512_add_pd(cmul4(va, r00, i00),
                                               cmul4(vb, r01, i01)));
    _mm512_storeu_pd(pb + 2 * i, _mm512_add_pd(cmul4(va, r10, i10),
                                               cmul4(vb, r11, i11)));
  }
  if (i < n) pair_dense_scalar(a + i, b + i, n - i, m00, m01, m10, m11);
}

__attribute__((QMPI_AVX512_TARGET)) void pair_antidiag_avx512(Complex* a,
                                                              Complex* b,
                                                              std::size_t n,
                                                              Complex m01,
                                                              Complex m10) {
  double* pa = reinterpret_cast<double*>(a);
  double* pb = reinterpret_cast<double*>(b);
  const __m512d r01 = _mm512_set1_pd(m01.real()), i01 = fi_alt_of(m01.imag());
  const __m512d r10 = _mm512_set1_pd(m10.real()), i10 = fi_alt_of(m10.imag());
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m512d va = _mm512_loadu_pd(pa + 2 * i);
    const __m512d vb = _mm512_loadu_pd(pb + 2 * i);
    _mm512_storeu_pd(pa + 2 * i, cmul4(vb, r01, i01));
    _mm512_storeu_pd(pb + 2 * i, cmul4(va, r10, i10));
  }
  if (i < n) pair_antidiag_scalar(a + i, b + i, n - i, m01, m10);
}

__attribute__((QMPI_AVX512_TARGET)) void swap_halves_avx512(Complex* a,
                                                            Complex* b,
                                                            std::size_t n) {
  double* pa = reinterpret_cast<double*>(a);
  double* pb = reinterpret_cast<double*>(b);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m512d va = _mm512_loadu_pd(pa + 2 * i);
    const __m512d vb = _mm512_loadu_pd(pb + 2 * i);
    _mm512_storeu_pd(pa + 2 * i, vb);
    _mm512_storeu_pd(pb + 2 * i, va);
  }
  if (i < n) swap_halves_scalar(a + i, b + i, n - i);
}

constexpr Ops kAvx512Ops = {
    Isa::kAvx512, scale_avx512, pair_dense_avx512, pair_antidiag_avx512,
    swap_halves_avx512,
};

#endif  // QMPI_SIMD_X86

// ----------------------------------------------------------- dispatch ---

/// Active tier, -1 while uninitialized. Reads are on every sweep's hot
/// path; writes only happen at init / set_active, both rare.
std::atomic<int> g_active{-1};
qmpi::Mutex g_init_mutex{"simd::g_init_mutex"};
std::string g_env_notice QMPI_GUARDED_BY(g_init_mutex);

Isa init_from_env() {
  qmpi::LockGuard lock(g_init_mutex);
  const int already = g_active.load(std::memory_order_acquire);
  if (already >= 0) return static_cast<Isa>(already);
  Request request = Request::kAuto;
  try {
    env::assign(env::Var::kSimd, request);
  } catch (const QmpiError& e) {
    // Executor threads catch the simulator's own error type.
    throw SimulatorError(e.what());
  }
  Selection sel = resolve(request);
  g_env_notice = std::move(sel.notice);
  g_active.store(static_cast<int>(sel.isa), std::memory_order_release);
  return sel.isa;
}

}  // namespace

const char* to_string(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "?";
}

bool available(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
#if QMPI_SIMD_X86
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case Isa::kAvx512:
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512dq") != 0 &&
             __builtin_cpu_supports("avx512vl") != 0;
#endif
    default:
      return false;
  }
}

Isa best_available() {
  if (available(Isa::kAvx512)) return Isa::kAvx512;
  if (available(Isa::kAvx2)) return Isa::kAvx2;
  return Isa::kScalar;
}

bool parse_request(std::string_view text, Request& out) {
  const auto v = env::word_value(env::Var::kSimd, text);
  if (v) out = static_cast<Request>(*v);
  return v.has_value();
}

Selection resolve(Request request) {
  Selection sel;
  if (request == Request::kAuto) {
    sel.isa = best_available();
    return sel;
  }
  const Isa wanted = request == Request::kScalar  ? Isa::kScalar
                     : request == Request::kAvx2 ? Isa::kAvx2
                                                 : Isa::kAvx512;
  if (available(wanted)) {
    sel.isa = wanted;
    return sel;
  }
  sel.isa = best_available();
  sel.notice = std::string("QMPI_SIMD=") + to_string(wanted) +
               " is not available on this CPU; kernels fell back to " +
               to_string(sel.isa);
  return sel;
}

void set_active(Isa isa) {
  if (!available(isa)) {
    throw SimulatorError(std::string("SIMD tier \"") + to_string(isa) +
                         "\" is not available on this CPU");
  }
  qmpi::LockGuard lock(g_init_mutex);
  g_active.store(static_cast<int>(isa), std::memory_order_release);
}

Isa active() {
  const int a = g_active.load(std::memory_order_acquire);
  if (a >= 0) return static_cast<Isa>(a);
  return init_from_env();
}

std::string take_env_notice() {
  qmpi::LockGuard lock(g_init_mutex);
  return std::exchange(g_env_notice, std::string());
}

const Ops& ops_for(Isa isa) {
#if QMPI_SIMD_X86
  switch (isa) {
    case Isa::kAvx2:
      return kAvx2Ops;
    case Isa::kAvx512:
      return kAvx512Ops;
    default:
      return kScalarOps;
  }
#else
  (void)isa;
  return kScalarOps;
#endif
}

}  // namespace qmpi::sim::simd
