// SIMD/scalar bit-identity regression tests.
//
// Every vectorized primitive and every sweep that dispatches to one must
// produce amplitudes EQUAL on the raw doubles to the scalar reference —
// not within a tolerance. The SIMD kernels perform the textbook complex
// arithmetic of the scalar path (two multiplies and a subtract per real
// part, never an FMA; simd.cpp is built with -ffp-contract=off, and the
// default build's baseline x86-64 codegen cannot contract the scalar
// kernels either), so operator== is the honest bar; the documented
// <= 1e-12 bound in simd.hpp only applies to builds with exotic FP flags,
// which this suite does not use. Tiers unavailable on the host CPU are
// skipped, never silently passed.
//
// Coverage: the raw Ops primitives across odd sizes and unaligned
// offsets; 1q kernels for every gate kind at every position; all
// control-mask shapes (low/high/adjacent/multi); fused cluster replay
// (in-place stream and row tile) and dense matrices at k = 1..4; shard
// counts 1/2/4/8; worker-lane splits.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "sim/sharded_statevector.hpp"
#include "sim/simd.hpp"
#include "sim/statevector.hpp"

namespace sim = qmpi::sim;
namespace simd = qmpi::sim::simd;
using sim::Complex;

namespace {

constexpr std::size_t kQubits = 12;

const simd::Isa kVectorTiers[] = {simd::Isa::kAvx2, simd::Isa::kAvx512};
const unsigned kShardCounts[] = {1, 2, 4, 8};

/// Restores the entry tier on scope exit so tests cannot leak a forced
/// tier into each other (the active tier is process-global).
class IsaGuard {
 public:
  IsaGuard() : entry_(simd::active()) {}
  ~IsaGuard() { simd::set_active(entry_); }

 private:
  simd::Isa entry_;
};

std::vector<Complex> random_amps(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<Complex> v(n);
  for (auto& a : v) a = Complex(d(rng), d(rng));
  return v;
}

void expect_equal(const std::vector<Complex>& ref,
                  const std::vector<Complex>& got, const char* what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref[i].real(), got[i].real()) << what << " amplitude " << i;
    ASSERT_EQ(ref[i].imag(), got[i].imag()) << what << " amplitude " << i;
  }
}

/// Entangles and rotates all qubits so no amplitude is zero or special.
void prepare(sim::Backend& sv, const std::vector<sim::QubitId>& q) {
  for (std::size_t i = 0; i < q.size(); ++i) {
    sv.ry(q[i], 0.3 + 0.11 * static_cast<double>(i));
  }
  for (std::size_t i = 0; i + 1 < q.size(); ++i) sv.cnot(q[i], q[i + 1]);
  for (std::size_t i = 0; i < q.size(); ++i) {
    sv.rz(q[i], -0.7 + 0.05 * static_cast<double>(i));
  }
  sv.flush_gates();
}

/// Runs `program` under the scalar tier on a serial backend, then under
/// every available vector tier on a `shards`-slice backend (serial when
/// shards == 1 would skip the sharded seams, so shards == 1 still uses
/// ShardedStateVector only when asked), asserting bit-identical snapshots.
template <typename Program>
void check_tiers(Program&& program, unsigned shards = 0,
                 unsigned threads = 1, std::size_t qubits = kQubits) {
  IsaGuard guard;
  auto run = [&](simd::Isa isa) {
    simd::set_active(isa);
    std::unique_ptr<sim::Backend> sv;
    if (shards == 0) {
      sv = std::make_unique<sim::StateVector>(1234);
    } else {
      sv = std::make_unique<sim::ShardedStateVector>(shards, 1234);
    }
    sv->set_num_threads(threads);
    // List the qubits so that q[i] sits on physical bit i: a sharded
    // register puts every qubit allocated once all slices are active on a
    // new top local bit, so its first log2(shards) qubits hold the global
    // bits and go last.
    std::vector<sim::QubitId> q = sv->allocate(qubits);
    std::rotate(q.begin(), q.begin() + std::countr_zero(std::max(shards, 1U)),
                q.end());
    prepare(*sv, q);
    program(*sv, q);
    sv->flush_gates();
    return sv->snapshot();
  };
  const std::vector<Complex> ref = run(simd::Isa::kScalar);
  for (const simd::Isa isa : kVectorTiers) {
    if (!simd::available(isa)) continue;
    expect_equal(ref, run(isa), simd::to_string(isa));
  }
}

}  // namespace

// ------------------------------------------------------ raw primitives ---

// Every Ops primitive, every vector tier, across sizes that exercise the
// tail loops (odd, below a vector, exactly a vector, just past one) and
// offsets that misalign the runs relative to the allocation.
TEST(SimdIdentity, PrimitivesMatchScalarAtOddSizesAndOffsets) {
  const std::size_t sizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 13, 16, 17, 31, 65};
  const std::size_t offsets[] = {0, 1, 2, 3};
  const Complex f(0.6123, -0.7812), g(-0.3141, 0.9273);
  const simd::Ops& sc = simd::ops_for(simd::Isa::kScalar);
  for (const simd::Isa isa : kVectorTiers) {
    if (!simd::available(isa)) continue;
    const simd::Ops& vec = simd::ops_for(isa);
    for (const std::size_t n : sizes) {
      for (const std::size_t off : offsets) {
        const std::vector<Complex> a0 = random_amps(off + n, 7 * n + off);
        const std::vector<Complex> b0 = random_amps(off + n, 91 * n + off);
        auto check2 = [&](auto&& apply, const char* what) {
          std::vector<Complex> ar = a0, br = b0, av = a0, bv = b0;
          apply(sc, ar.data() + off, br.data() + off);
          apply(vec, av.data() + off, bv.data() + off);
          for (std::size_t i = 0; i < ar.size(); ++i) {
            ASSERT_EQ(ar[i].real(), av[i].real())
                << what << " isa=" << simd::to_string(isa) << " n=" << n
                << " off=" << off << " i=" << i;
            ASSERT_EQ(ar[i].imag(), av[i].imag()) << what;
            ASSERT_EQ(br[i].real(), bv[i].real()) << what;
            ASSERT_EQ(br[i].imag(), bv[i].imag()) << what;
          }
        };
        check2([&](const simd::Ops& o, Complex* a,
                   Complex*) { o.scale(a, n, f); },
               "scale");
        check2([&](const simd::Ops& o, Complex* a,
                   Complex* b) { o.scale_copy(a, b, n, f); },
               "scale_copy");
        check2([&](const simd::Ops& o, Complex* a,
                   Complex* b) { o.axpy(a, b, n, f); },
               "axpy");
        check2([&](const simd::Ops& o, Complex* a,
                   Complex* b) { o.pair_dense(a, b, n, f, g, -g, -f); },
               "pair_dense");
        check2([&](const simd::Ops& o, Complex* a,
                   Complex* b) { o.pair_antidiag(a, b, n, f, g); },
               "pair_antidiag");
        check2([&](const simd::Ops& o, Complex* a,
                   Complex* b) { o.swap_halves(a, b, n); },
               "swap_halves");
      }
    }
  }
}

// ------------------------------------------------------------ 1q sweeps ---

// Every gate kind at every target position: a lone gate is a one-op block
// program, replayed through the row tile at positions 0 and 1 and in
// place on the vector runs above.
TEST(SimdIdentity, EveryGateKindAtEveryPosition) {
  check_tiers([](sim::Backend& sv, const std::vector<sim::QubitId>& q) {
    for (std::size_t i = 0; i < q.size(); ++i) {
      sv.h(q[i]);                       // general dense pair
      sv.ry(q[i], 0.2 + 0.07 * i);      // general, real matrix
      sv.rz(q[i], -0.4 + 0.05 * i);     // general diagonal
      sv.t(q[i]);                       // phase-type (m00 == 1)
      sv.x(q[i]);                       // anti-diagonal swap
      sv.y(q[i]);                       // anti-diagonal with factors
      sv.flush_gates();                 // one sweep per gate, no fusion
    }
  });
}

// Control masks of every shape: below/above the target, adjacent to it
// (splitting the contiguous run), multi-bit, and dense-in-the-low-bits —
// each both for diagonal and for pair kernels.
TEST(SimdIdentity, ControlMaskShapes) {
  check_tiers([](sim::Backend& sv, const std::vector<sim::QubitId>& q) {
    const std::size_t n = q.size();
    struct Shape {
      std::size_t target;
      std::vector<std::size_t> controls;
    };
    const Shape shapes[] = {
        {5, {0}},              // control far below target
        {5, {4}},              // control adjacent below
        {5, {6}},              // control adjacent above
        {2, {n - 1}},          // control far above
        {n - 1, {0, 1}},       // low controls, high target
        {0, {n - 1, n - 2}},   // high controls, target bit 0
        {6, {1, 4, 9}},        // straddling multi-control
        {7, {0, 1, 2, 3}},     // dense low controls shred every run
    };
    for (const Shape& s : shapes) {
      std::vector<sim::QubitId> c;
      for (const std::size_t i : s.controls) c.push_back(q[i]);
      sv.apply_controlled(sim::gate_rz(0.31), c, q[s.target]);  // diagonal
      sv.flush_gates();
      sv.apply_controlled(sim::gate_t(), c, q[s.target]);       // phase
      sv.flush_gates();
      sv.apply_controlled(sim::gate_x(), c, q[s.target]);       // swap
      sv.flush_gates();
      sv.apply_controlled(sim::gate_ry(0.47), c, q[s.target]);  // dense
      sv.flush_gates();
    }
  });
}

// --------------------------------------------------- fused cluster replay ---

// Fused clusters at k = 1..4: gate runs on overlapping qubit sets fuse
// into one cluster, and the flush replays them through the streaming
// cache-blocked sweep. Clusters whose lowest qubit sits at position 0
// (run 1) or 1 (run 2) take the gathered row tile instead, as does one
// that straddles the lowest and highest qubit.
TEST(SimdIdentity, FusedClusterReplayK1To4) {
  for (const std::size_t base :
       {std::size_t{0}, std::size_t{1}, std::size_t{5}}) {
    check_tiers([base](sim::Backend& sv,
                       const std::vector<sim::QubitId>& q) {
      // k=1: a run of same-target gates composes into one 2x2.
      sv.h(q[base]);
      sv.t(q[base]);
      sv.ry(q[base], 0.3);
      sv.flush_gates();
      // k=2: Trotter-term shape, CNOT * Rz * CNOT.
      sv.cnot(q[base], q[base + 1]);
      sv.rz(q[base + 1], 0.21);
      sv.cnot(q[base], q[base + 1]);
      sv.flush_gates();
      // k=3: mixed kinds including a Toffoli.
      sv.toffoli(q[base], q[base + 1], q[base + 2]);
      sv.ry(q[base + 2], -0.4);
      sv.cz(q[base], q[base + 2]);
      sv.flush_gates();
      // k=4: a dense brick of entanglers and rotations.
      sv.cnot(q[base], q[base + 3]);
      sv.h(q[base + 1]);
      sv.cnot(q[base + 1], q[base + 2]);
      sv.rz(q[base + 3], 0.17);
      sv.cnot(q[base + 2], q[base + 3]);
      sv.ry(q[base], 0.09);
      sv.flush_gates();
      // k=2 straddling the register: block bits 0 and n-1.
      const std::size_t last = q.size() - 1;
      sv.cnot(q[0], q[last]);
      sv.ry(q[0], 0.27);
      sv.rz(q[last], -0.33);
      sv.cnot(q[last], q[0]);
      sv.flush_gates();
    });
  }
}

// Dense k-qubit matrices (the gather/accumulate streaming path), k = 1..4,
// with and without controls, at low and high positions.
TEST(SimdIdentity, DenseMatrixK1To4) {
  check_tiers([](sim::Backend& sv, const std::vector<sim::QubitId>& q) {
    std::mt19937_64 rng(99);
    std::uniform_real_distribution<double> d(-1.0, 1.0);
    for (std::size_t k = 1; k <= 4; ++k) {
      const std::size_t dim = std::size_t{1} << k;
      std::vector<Complex> m(dim * dim);
      for (auto& e : m) e = Complex(d(rng), d(rng));
      std::vector<sim::QubitId> lo, hi;
      for (std::size_t j = 0; j < k; ++j) {
        lo.push_back(q[j]);
        hi.push_back(q[q.size() - 1 - 2 * j]);
      }
      sv.apply_matrix(m, lo);
      sv.apply_matrix(m, hi);
      const sim::QubitId ctrl[] = {q[4]};
      sv.apply_matrix(m, hi, ctrl);
    }
  });
}

// ------------------------------------------------------- sharded backend ---

// The full gate mix at 1/2/4/8 shards: local sweeps, global diagonals,
// relabel pulls, and fused clusters all run through the vector primitives
// and must stay bit-identical to scalar-serial.
TEST(SimdIdentity, ShardedBackendAllTiers) {
  for (const unsigned s : kShardCounts) {
    check_tiers(
        [](sim::Backend& sv, const std::vector<sim::QubitId>& q) {
          const std::size_t n = q.size();
          sv.h(q[2]);
          sv.ry(q[n - 1], 1.234);     // global target -> relabel
          sv.rz(q[n - 1], 0.81);      // global diagonal
          sv.t(q[n - 2]);             // global phase-type
          sv.cnot(q[0], q[n - 1]);    // local ctrl, global target
          sv.cnot(q[n - 1], q[1]);    // global ctrl, local target
          sv.flush_gates();
          sv.cnot(q[0], q[1]);        // fused Trotter term
          sv.rz(q[1], 0.21);
          sv.cnot(q[0], q[1]);
          sv.flush_gates();
          for (std::size_t i = 0; i < 3; ++i) {  // k=4 chain on q[0..3]
            sv.cnot(q[i], q[i + 1]);
            sv.rz(q[i + 1], 0.13 + 0.02 * static_cast<double>(i));
            sv.cnot(q[i], q[i + 1]);
          }
          sv.flush_gates();
        },
        s);
  }
}

// Worker-lane splits on a register large enough to cross kMinParallel:
// lanes chunk the runs at arbitrary boundaries, which must not perturb
// the vector tails — nor the row tiles of low-position clusters. Those
// split by blocks, so the cluster terms need 20 qubits to reach 2^16
// blocks at k = 4; 3 lanes split at multiples of 8 blocks, mid-tile.
TEST(SimdIdentity, ThreadedLanesStayBitIdentical) {
  constexpr std::size_t kBig = 17;
  for (const unsigned threads : {2U, 4U}) {
    check_tiers(
        [](sim::Backend& sv, const std::vector<sim::QubitId>& q) {
          sv.h(q[kBig - 1]);
          sv.rz(q[kBig - 2], 0.33);
          sv.cnot(q[0], q[kBig - 1]);
          sv.flush_gates();
          sv.cnot(q[2], q[3]);
          sv.rz(q[3], 0.21);
          sv.cnot(q[2], q[3]);
          sv.flush_gates();
        },
        /*shards=*/0, threads, kBig);
  }
  constexpr std::size_t kTiled = 20;
  for (const unsigned threads : {2U, 3U, 4U}) {
    check_tiers(
        [](sim::Backend& sv, const std::vector<sim::QubitId>& q) {
          sv.cnot(q[0], q[1]);
          sv.rz(q[1], 0.21);
          sv.cnot(q[0], q[1]);
          sv.flush_gates();
          for (std::size_t i = 0; i < 3; ++i) {
            sv.cnot(q[i], q[i + 1]);
            sv.rz(q[i + 1], 0.11 + 0.03 * static_cast<double>(i));
            sv.cnot(q[i], q[i + 1]);
          }
          sv.flush_gates();
        },
        /*shards=*/0, threads, kTiled);
  }
}

// ------------------------------------------------------------- dispatch ---

TEST(SimdIdentity, DispatchReportsAndForcesTiers) {
  IsaGuard guard;
  // Scalar is universal; best_available is at least scalar and available.
  EXPECT_TRUE(simd::available(simd::Isa::kScalar));
  EXPECT_TRUE(simd::available(simd::best_available()));
  EXPECT_STREQ(simd::to_string(simd::Isa::kScalar), "scalar");
  EXPECT_STREQ(simd::to_string(simd::Isa::kAvx2), "avx2");
  EXPECT_STREQ(simd::to_string(simd::Isa::kAvx512), "avx512");
  // Forcing an available tier activates exactly that tier's table.
  for (const simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    if (!simd::available(isa)) {
      EXPECT_THROW(simd::set_active(isa), sim::SimulatorError);
      continue;
    }
    simd::set_active(isa);
    EXPECT_EQ(simd::active(), isa);
    EXPECT_EQ(simd::ops().isa, isa);
  }
}
