// Tests for measurement semantics: collapse, statistics with a seeded RNG,
// X-basis measurement, joint parity measurement, and release().
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <numbers>
#include <vector>

#include "sim/kernels.hpp"
#include "sim/sharded_statevector.hpp"
#include "sim/statevector.hpp"
#include "sim/sweep.hpp"

namespace sim = qmpi::sim;
using sim::Complex;

namespace {

bool same_bytes(const std::vector<Complex>& a, const std::vector<Complex>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) == 0;
}

/// probability_one's contract, element by element: the norms of the bit-1
/// half, each chunk of kReduceChunk compressed indices added in ascending
/// order with the bit spliced into every index, and the chunk sums added
/// in chunk order.
double reference_probability_one(const std::vector<Complex>& state,
                                 std::size_t pos) {
  const std::size_t half = state.size() / 2;
  double total = 0.0;
  for (std::size_t lo = 0; lo < half; lo += sim::kReduceChunk) {
    double p = 0.0;
    for (std::size_t k = lo; k < std::min(half, lo + sim::kReduceChunk);
         ++k) {
      p += std::norm(state[sim::kernels::insert_bit(k, pos, true)]);
    }
    total += p;
  }
  return total;
}

/// collapse's contract, element by element: amplitudes whose bit `pos` is
/// `bit` scale by 1/sqrt(prob), all others become +0.0.
std::vector<Complex> reference_collapse(std::vector<Complex> state,
                                        std::size_t pos, bool bit,
                                        double prob) {
  const double scale = 1.0 / std::sqrt(prob);
  for (std::size_t i = 0; i < state.size(); ++i) {
    if (((i >> pos) & 1U) == static_cast<unsigned>(bit)) {
      state[i] *= scale;
    } else {
      state[i] = Complex(0.0, 0.0);
    }
  }
  return state;
}

/// Counts the doubles of `state` that are -0.0 and that are subnormal, in
/// the half whose bit `pos` is `bit`.
std::pair<std::size_t, std::size_t> edge_doubles(
    const std::vector<Complex>& state, std::size_t pos, bool bit) {
  std::size_t neg_zeros = 0;
  std::size_t subnormals = 0;
  for (std::size_t i = 0; i < state.size(); ++i) {
    if (((i >> pos) & 1U) != static_cast<unsigned>(bit)) continue;
    for (const double d : {state[i].real(), state[i].imag()}) {
      if (d == 0.0 && std::signbit(d)) ++neg_zeros;
      if (std::fpclassify(d) == FP_SUBNORMAL) ++subnormals;
    }
  }
  return {neg_zeros, subnormals};
}

/// A product state with p1 = 1/2 at `pos` whose doubles include -0.0 and
/// subnormals on both sides of `pos`: the qubit above `pos` stays |0> and
/// takes a Z last, so its bit-1 half holds (-0.0, +0.0); the next two
/// rotate by 1e-150 and -1e-160, whose product is subnormal. Each qubit is
/// rotated as it is allocated, so the sweeps run over the growing state.
/// Returns the qubit at `pos`.
sim::QubitId prepare_edge_state(sim::Backend& sv, std::size_t n,
                                std::size_t pos) {
  const std::size_t zero_q = (pos + 1) % n;
  std::vector<sim::QubitId> q;
  for (std::size_t i = 0; i < n; ++i) {
    q.push_back(sv.allocate(1).front());
    if (i == zero_q) continue;
    double theta = 0.4 + 0.13 * static_cast<double>(i);
    if (i == pos) theta = std::numbers::pi / 2;
    if (i == (pos + 2) % n) theta = 2e-150;
    if (i == (pos + 3) % n) theta = -2e-160;
    sv.ry(q[i], theta);
    sv.rz(q[i], 0.3 + 0.07 * static_cast<double>(i));
    sv.flush_gates();
  }
  sv.z(q[zero_q]);
  sv.flush_gates();
  return q[pos];
}

}  // namespace

TEST(Measurement, DeterministicOnBasisStates) {
  sim::StateVector sv;
  const auto q = sv.allocate(2);
  sv.x(q[1]);
  EXPECT_FALSE(sv.measure(q[0]));
  EXPECT_TRUE(sv.measure(q[1]));
}

TEST(Measurement, CollapseIsConsistentOnRepeat) {
  sim::StateVector sv(42);
  const auto q = sv.allocate(1);
  sv.h(q[0]);
  const bool first = sv.measure(q[0]);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(sv.measure(q[0]), first);
}

TEST(Measurement, BellPairOutcomesAreCorrelated) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    sim::StateVector sv(seed);
    const auto q = sv.allocate(2);
    sv.h(q[0]);
    sv.cnot(q[0], q[1]);
    EXPECT_EQ(sv.measure(q[0]), sv.measure(q[1])) << "seed=" << seed;
  }
}

TEST(Measurement, StatisticsMatchBornRuleWithinTolerance) {
  const double theta = 1.0;  // P[1] = sin^2(0.5) ~ 0.2298
  int ones = 0;
  constexpr int kShots = 4000;
  sim::StateVector sv(987654321);
  for (int shot = 0; shot < kShots; ++shot) {
    const auto q = sv.allocate(1);
    sv.ry(q[0], theta);
    if (sv.release(q[0])) ++ones;
  }
  const double p = static_cast<double>(ones) / kShots;
  const double expected = std::sin(0.5) * std::sin(0.5);
  // 5 sigma of a binomial with p ~ 0.23, n = 4000.
  const double sigma = std::sqrt(expected * (1 - expected) / kShots);
  EXPECT_NEAR(p, expected, 5 * sigma);
}

TEST(Measurement, XBasisMeasurementOnPlusIsDeterministic) {
  sim::StateVector sv(1);
  const auto q = sv.allocate(1);
  sv.h(q[0]);                       // |+>
  EXPECT_FALSE(sv.measure_x(q[0]));  // |+> is the +1 eigenstate
  sv.z(q[0]);                       // now |->
  EXPECT_TRUE(sv.measure_x(q[0]));
}

TEST(Measurement, ParityMeasurementOnBasisStates) {
  sim::StateVector sv;
  const auto q = sv.allocate(3);
  sv.x(q[0]);
  sv.x(q[2]);
  const sim::QubitId pair01[] = {q[0], q[1]};
  const sim::QubitId pair02[] = {q[0], q[2]};
  const sim::QubitId all[] = {q[0], q[1], q[2]};
  EXPECT_TRUE(sv.measure_parity(pair01));   // 1 xor 0
  EXPECT_FALSE(sv.measure_parity(pair02));  // 1 xor 1
  EXPECT_FALSE(sv.measure_parity(all));     // 1 xor 0 xor 1
}

TEST(Measurement, ParityMeasurementPreservesSuperpositionWithinEigenspace) {
  // On a GHZ state, ZZ parity of any pair is deterministically even and
  // must NOT collapse the superposition (unlike two single-qubit
  // measurements). This is the property cat-state assembly relies on.
  sim::StateVector sv(3);
  const auto q = sv.allocate(3);
  sv.h(q[0]);
  sv.cnot(q[0], q[1]);
  sv.cnot(q[1], q[2]);
  const sim::QubitId pair[] = {q[0], q[1]};
  EXPECT_FALSE(sv.measure_parity(pair));
  // Still a GHZ state: <XXX> = 1 requires coherence between |000> and |111>.
  const std::pair<sim::QubitId, char> xxx[] = {
      {q[0], 'X'}, {q[1], 'X'}, {q[2], 'X'}};
  EXPECT_NEAR(sv.expectation(xxx), 1.0, 1e-12);
}

TEST(Measurement, ParityMeasurementProjectsBellBasis) {
  // |00> + |10> splits into even (|00>) and odd (|10>) parity branches of
  // equal weight; whichever is observed, the post-state is consistent.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    sim::StateVector sv(seed);
    const auto q = sv.allocate(2);
    sv.h(q[0]);
    const sim::QubitId both[] = {q[0], q[1]};
    const bool odd = sv.measure_parity(both);
    EXPECT_EQ(sv.measure(q[0]), odd);
    EXPECT_FALSE(sv.measure(q[1]));
  }
}

TEST(Measurement, ParityOutcomeStatisticsAreFair) {
  int odd_count = 0;
  constexpr int kShots = 2000;
  sim::StateVector sv(555);
  for (int shot = 0; shot < kShots; ++shot) {
    const auto q = sv.allocate(2);
    sv.h(q[0]);
    const sim::QubitId both[] = {q[0], q[1]};
    if (sv.measure_parity(both)) ++odd_count;
    sv.release(q[0]);
    sv.release(q[1]);
  }
  EXPECT_NEAR(static_cast<double>(odd_count) / kShots, 0.5, 0.05);
}

TEST(Measurement, ReleaseRemovesQubitAndReturnsOutcome) {
  sim::StateVector sv(11);
  const auto q = sv.allocate(2);
  sv.x(q[0]);
  sv.h(q[1]);
  EXPECT_TRUE(sv.release(q[0]));
  EXPECT_EQ(sv.num_qubits(), 1u);
  (void)sv.release(q[1]);
  EXPECT_EQ(sv.num_qubits(), 0u);
  EXPECT_NEAR(sv.norm(), 1.0, 1e-12);
}

TEST(Measurement, MeasurementOfEntangledPairCollapsesPartner) {
  sim::StateVector sv(9);
  const auto q = sv.allocate(2);
  sv.h(q[0]);
  sv.cnot(q[0], q[1]);
  const bool m = sv.measure(q[0]);
  EXPECT_DOUBLE_EQ(sv.probability_one(q[1]), m ? 1.0 : 0.0);
}

TEST(Measurement, SeedReproducibility) {
  auto run_once = [](std::uint64_t seed) {
    sim::StateVector sv(seed);
    const auto q = sv.allocate(4);
    for (const auto id : q) sv.h(id);
    std::vector<bool> bits;
    for (const auto id : q) bits.push_back(sv.measure(id));
    return bits;
  };
  EXPECT_EQ(run_once(777), run_once(777));
}

TEST(Measurement, RepeatedQubitIdsAreRejected) {
  // Z·Z = I: a doubled id would otherwise OR into one mask bit and measure
  // Z_q instead of the identity. amplitude() would silently ignore the
  // qubit the duplicate displaced.
  sim::StateVector sv;
  const auto q = sv.allocate(2);
  sv.h(q[0]);
  const sim::QubitId twice[] = {q[0], q[0]};
  EXPECT_THROW(sv.measure_parity(twice), sim::SimulatorError);
  const bool bits[] = {true, false};
  EXPECT_THROW((void)sv.amplitude(twice, bits), sim::SimulatorError);
  // The rejected calls changed nothing: the superposition is intact.
  EXPECT_NEAR(sv.probability_one(q[0]), 0.5, 1e-12);
  const sim::QubitId both[] = {q[1], q[0]};
  EXPECT_NEAR(std::abs(sv.amplitude(both, bits)), 0.0, 1e-12);
}

TEST(MeasureKernels, RunWalkMatchesElementwiseReferenceAtEveryPosition) {
  // 2^14: one reduction chunk; 2^17: four, so runs at high positions
  // straddle and exceed a chunk. Every state holds -0.0 and subnormal
  // doubles on both sides of the measured bit; both outcomes at every
  // position, on serial (one lane and three, whose lane boundaries cut
  // runs) and on 1-, 2- and 4-shard backends.
  for (const std::size_t n : {14u, 17u}) {
    for (std::size_t pos = 0; pos < n; ++pos) {
      for (const bool outcome : {false, true}) {
        // The outcome is the first draw of the seed's RNG against p1 = 1/2:
        // pick a seed whose draw on a one-qubit |+> gives the wanted one.
        std::uint64_t seed = 1;
        for (;; ++seed) {
          ASSERT_LT(seed, 64u) << "no seed draws outcome " << outcome;
          sim::StateVector probe(seed);
          const sim::QubitId plus = probe.allocate(1).front();
          probe.h(plus);
          if (probe.measure(plus) == outcome) break;
        }
        sim::StateVector sv(seed);
        const sim::QubitId q = prepare_edge_state(sv, n, pos);
        const std::vector<Complex> before = sv.snapshot();
        const double p1 = sv.probability_one(q);
        ASSERT_EQ(sv.measure(q), outcome);
        const std::string where = "n=" + std::to_string(n) +
                                  " pos=" + std::to_string(pos) +
                                  " outcome=" + std::to_string(outcome);
        for (const bool bit : {false, true}) {
          const auto [neg_zeros, subnormals] = edge_doubles(before, pos, bit);
          ASSERT_GT(neg_zeros, 0u) << where << " half " << bit;
          ASSERT_GT(subnormals, 0u) << where << " half " << bit;
        }
        ASSERT_EQ(p1, reference_probability_one(before, pos)) << where;
        const std::vector<Complex> after = sv.snapshot();
        ASSERT_TRUE(same_bytes(
            after, reference_collapse(before, pos, outcome,
                                      outcome ? p1 : 1.0 - p1)))
            << where;

        std::vector<std::unique_ptr<sim::Backend>> others;
        if (n == 17) {  // 2^17 amplitudes is where sweeps go parallel
          others.push_back(std::make_unique<sim::StateVector>(seed));
          others.back()->set_num_threads(3);
        }
        for (const unsigned shards : {1u, 2u, 4u}) {
          others.push_back(
              sim::make_backend(sim::BackendKind::kSharded, seed, shards));
        }
        for (const auto& other : others) {
          const sim::QubitId oq = prepare_edge_state(*other, n, pos);
          const std::string which = where + " " + other->name() +
                                    " threads=" +
                                    std::to_string(other->num_threads());
          ASSERT_EQ(other->probability_one(oq), p1) << which;
          ASSERT_EQ(other->measure(oq), outcome) << which;
          ASSERT_TRUE(same_bytes(other->snapshot(), after)) << which;
        }
      }
    }
  }
}
