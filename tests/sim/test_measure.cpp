// Tests for measurement semantics: collapse, statistics with a seeded RNG,
// X-basis measurement, joint parity measurement, and release().
#include <gtest/gtest.h>

#include <cmath>

#include "sim/statevector.hpp"

namespace sim = qmpi::sim;

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
