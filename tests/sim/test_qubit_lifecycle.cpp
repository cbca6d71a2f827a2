// The qubit life cycle — allocate, measure, reset, free — without full
// flushes, redundant reductions or reallocation. The contract tested here:
//
//  1. Light-cone flush: measure / measure_parity / probability_one / the
//     deallocations apply only the pending clusters that touch their
//     qubits. The rest stay queued (pending clusters are qubit-disjoint,
//     so they commute with a projector or marginal on other qubits).
//  2. Known basis states: Backend records per qubit whether it is known
//     to be |0> or |1>. probability_one of a known |0> answers 0.0 with no
//     flush or sweep; a known qubit frees without a reduction. Any gate
//     that can leave the qubit in superposition clears the record, so the
//     "in superposition" guard still fires.
//  3. In-place compaction: removing a position compacts the kept half in
//     place, and equals the insert_bit gather for every position and bit.
//  4. A seeded random program mixing all of the above is bit-identical
//     between serial and sharded at 1/2/4/8 shards and within 1e-9 of
//     gate-by-gate (fusion off) execution.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "sim/kernels.hpp"
#include "sim/sharded_statevector.hpp"
#include "sim/statevector.hpp"

namespace sim = qmpi::sim;
using sim::Complex;

namespace {

void expect_exact(const std::vector<Complex>& a,
                  const std::vector<Complex>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].real(), b[i].real()) << "amplitude " << i;
    ASSERT_EQ(a[i].imag(), b[i].imag()) << "amplitude " << i;
  }
}

/// `state`'s kept half after removing position `pos` with value `bit`:
/// the out-of-place gather the in-place compaction replaced.
std::vector<Complex> gather_half(const std::vector<Complex>& state,
                                 std::size_t pos, bool bit) {
  std::vector<Complex> out(state.size() / 2);
  for (std::size_t o = 0; o < out.size(); ++o) {
    out[o] = state[sim::kernels::insert_bit(o, pos, bit)];
  }
  return out;
}

/// Sum of |a|^2 over the amplitudes whose bit `pos` is 1, added in index
/// order — what probability_one's reduction computes on a small register.
double bit_one_sum(const std::vector<Complex>& state, std::size_t pos) {
  double p = 0.0;
  for (std::size_t k = 0; k < state.size() / 2; ++k) {
    p += std::norm(state[sim::kernels::insert_bit(k, pos, true)]);
  }
  return p;
}

/// Runs `fn` and requires it to throw a SimulatorError whose message
/// contains `needle`.
template <typename Fn>
void expect_error_containing(Fn&& fn, const std::string& needle) {
  try {
    fn();
    ADD_FAILURE() << "expected a SimulatorError containing '" << needle
                  << "'";
  } catch (const sim::SimulatorError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

/// A seeded random program over a register that grows and shrinks: gates
/// on live qubits, ancillas allocated (and probed with probability_one
/// while fresh), ancillas entangled and then measured, reset and freed at
/// random positions. Every observed value — outcomes and probabilities —
/// is appended to `log`, so two backends agree only if they agree draw
/// for draw. Branches depend only on the seed and the outcomes.
void lifecycle_program(sim::Backend& sv, std::uint64_t seed,
                       std::vector<double>& log) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> angle(-3.0, 3.0);
  std::uniform_int_distribution<int> choice(0, 11);
  std::vector<sim::QubitId> live = sv.allocate(6);
  const auto pick = [&] {
    return live[std::uniform_int_distribution<std::size_t>(
        0, live.size() - 1)(rng)];
  };
  const auto pick_other = [&](sim::QubitId a) {
    sim::QubitId b = pick();
    while (b == a) b = pick();
    return b;
  };
  for (int step = 0; step < 300; ++step) {
    switch (choice(rng)) {
      case 0:
        sv.ry(pick(), angle(rng));
        break;
      case 1:
        sv.rz(pick(), angle(rng));
        break;
      case 2:
        sv.h(pick());
        break;
      case 3:
        sv.x(pick());
        break;
      case 4: {
        const sim::QubitId a = pick();
        sv.cnot(a, pick_other(a));
        break;
      }
      case 5: {
        const sim::QubitId a = pick();
        sv.cz(a, pick_other(a));
        break;
      }
      case 6:
      case 7: {
        // Ancilla cycle: fresh qubit, probe, entangle, measure, reset, free.
        if (live.size() >= 10) break;
        const sim::QubitId anc = sv.allocate(1).front();
        log.push_back(sv.probability_one(anc));
        sv.cnot(pick(), anc);
        const bool m = sv.measure(anc);
        log.push_back(m ? 1.0 : 0.0);
        if (m) sv.x(anc);
        sv.deallocate_classical(anc);
        break;
      }
      case 8:
        // Allocate a qubit that stays live; later frees take it at a
        // random position.
        if (live.size() < 10) {
          live.push_back(sv.allocate(1).front());
          log.push_back(sv.probability_one(live.back()));
        }
        break;
      case 9: {
        // measure -> X -> deallocate_classical of a random live qubit.
        if (live.size() <= 3) break;
        const std::size_t k = std::uniform_int_distribution<std::size_t>(
            0, live.size() - 1)(rng);
        const sim::QubitId q = live[k];
        const bool m = sv.measure(q);
        log.push_back(m ? 1.0 : 0.0);
        if (m) sv.x(q);
        sv.deallocate_classical(q);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
        break;
      }
      case 10:
        log.push_back(sv.probability_one(pick()));
        break;
      default: {
        const sim::QubitId a = pick();
        const sim::QubitId pair[] = {a, pick_other(a)};
        log.push_back(sv.measure_parity(pair) ? 1.0 : 0.0);
        break;
      }
    }
  }
}

}  // namespace

TEST(LightConeFlush, MeasureAppliesOnlyTheClustersTouchingItsQubit) {
  for (const unsigned shards : {0u, 2u, 4u}) {
    std::unique_ptr<sim::Backend> sv =
        shards == 0 ? sim::make_backend(sim::BackendKind::kSerial, 5)
                    : sim::make_backend(sim::BackendKind::kSharded, 5, shards);
    const auto q = sv->allocate(6);
    sv->h(q[0]);
    sv->cnot(q[0], q[1]);  // cluster {q0, q1}
    sv->ry(q[2], 0.4);     // cluster {q2}
    sv->h(q[3]);
    sv->cnot(q[3], q[4]);  // cluster {q3, q4}: a Bell pair
    ASSERT_EQ(sv->pending_clusters(), 3u);
    (void)sv->measure(q[1]);
    EXPECT_EQ(sv->pending_clusters(), 2u) << "shards=" << shards;
    const sim::QubitId pair[] = {q[2], q[5]};
    (void)sv->measure_parity(pair);
    EXPECT_EQ(sv->pending_clusters(), 1u);
    (void)sv->probability_one(q[0]);  // its cluster is already applied
    EXPECT_EQ(sv->pending_clusters(), 1u);
    // A measured qubit frees without touching the {q3, q4} cluster.
    sv->deallocate_classical(q[1]);
    EXPECT_EQ(sv->pending_clusters(), 1u);
    EXPECT_EQ(sv->num_qubits(), 5u);
    // The {q3, q4} cluster survived the removal of a lower position and
    // still applies to the right qubits: the Bell pair's bits agree.
    const bool m3 = sv->measure(q[3]);
    EXPECT_EQ(sv->pending_clusters(), 0u);
    EXPECT_EQ(sv->measure(q[4]), m3) << "shards=" << shards;
  }
}

TEST(LightConeFlush, PendingClustersSurviveRemovalBelowThem) {
  // Serial against fusion-off: the {q3, q4} Bell cluster is still pending
  // when q1 (a lower position) is removed, and must land on the shifted
  // positions afterwards.
  sim::StateVector fused(8);
  sim::StateVector unfused(8);
  unfused.set_fusion_enabled(false);
  for (sim::StateVector* sv : {&fused, &unfused}) {
    const auto q = sv->allocate(5);
    sv->ry(q[1], 1.1);
    (void)sv->measure(q[1]);
    sv->h(q[3]);
    sv->cnot(q[3], q[4]);
    sv->ry(q[0], 0.7);
    sv->deallocate_classical(q[1]);
  }
  EXPECT_EQ(fused.pending_clusters(), 2u);
  const auto a = fused.snapshot();
  const auto b = unfused.snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(std::abs(a[i] - b[i]), 0.0, 1e-12) << "amplitude " << i;
  }
}

TEST(KnownBasis, FreshQubitProbabilityIsExactZeroWithoutAFlush) {
  for (const unsigned shards : {0u, 2u, 8u}) {
    std::unique_ptr<sim::Backend> sv =
        shards == 0 ? sim::make_backend(sim::BackendKind::kSerial, 3)
                    : sim::make_backend(sim::BackendKind::kSharded, 3, shards);
    const auto q = sv->allocate(4);
    sv->h(q[0]);
    sv->cnot(q[0], q[1]);
    sv->ry(q[2], 0.3);
    const std::size_t pending = sv->pending_clusters();
    const sim::QubitId fresh = sv->allocate(1).front();
    EXPECT_EQ(sv->probability_one(fresh), 0.0);
    EXPECT_EQ(sv->pending_clusters(), pending) << "shards=" << shards;
    // Diagonal gates and serving as a control keep the record.
    sv->rz(fresh, 0.9);
    sv->t(fresh);
    sv->cnot(fresh, q[3]);
    EXPECT_EQ(sv->probability_one(fresh), 0.0);
    // The record is right: every bit-1 amplitude really is an exact zero.
    EXPECT_EQ(bit_one_sum(sv->snapshot(), sv->position_of(fresh)), 0.0);
    // The pending work still lands: the Bell pair is intact.
    EXPECT_NEAR(sv->probability_one(q[1]), 0.5, 1e-12);
    sv->deallocate(fresh);
    EXPECT_EQ(sv->num_qubits(), 4u);
  }
}

TEST(KnownBasis, SuperpositionGuardStillFires) {
  const auto prepared = [](const char* what) {
    auto sv = std::make_unique<sim::StateVector>(17);
    const auto q = sv->allocate(2);
    const std::string w = what;
    if (w == "H") {
      sv->h(q[1]);
    } else if (w == "CNOT") {
      sv->h(q[0]);
      sv->cnot(q[0], q[1]);  // target q1 from a |+> control
    } else {
      const std::pair<sim::QubitId, char> p[] = {{q[1], w == "X" ? 'X' : 'Y'}};
      sv->apply_pauli_rotation(p, 0.4);
    }
    return std::make_pair(std::move(sv), q[1]);
  };
  for (const char* what : {"H", "CNOT", "X", "Y"}) {
    auto [sv, q] = prepared(what);
    expect_error_containing([&] { sv->deallocate_classical(q); },
                            "in superposition");
    expect_error_containing([&] { sv->deallocate(q); }, "not in |0>");
    EXPECT_GT(sv->probability_one(q), 1e-3) << what;
  }
}

TEST(KnownBasis, ZRotationAndFlipsKeepTheRecordExact) {
  // A Z-only Pauli rotation is diagonal; X flips a known value; Y (an
  // antidiagonal gate) flips it back.
  sim::StateVector sv(4);
  const auto q = sv.allocate(3);
  sv.h(q[0]);
  const std::pair<sim::QubitId, char> zz[] = {{q[1], 'Z'}, {q[0], 'Z'}};
  sv.apply_pauli_rotation(zz, 0.6);
  EXPECT_EQ(sv.probability_one(q[1]), 0.0);
  sv.x(q[1]);
  expect_error_containing([&] { sv.deallocate(q[1]); }, "not in |0>");
  // A known |1> still reduces: the answer is the sum over the bit-1 half
  // (the norm, within rounding of 1.0), added in index order.
  EXPECT_EQ(sv.probability_one(q[1]),
            bit_one_sum(sv.snapshot(), sv.position_of(q[1])));
  sv.y(q[1]);
  EXPECT_EQ(sv.probability_one(q[1]), 0.0);
  sv.deallocate(q[1]);
  EXPECT_NEAR(sv.probability_one(q[0]), 0.5, 1e-12);
}

TEST(KnownBasis, FlipThenDiagonalFreesTheBitOneHalf) {
  // X -> Rz -> deallocate_classical: the record says |1>, so the bit-1
  // half (carrying Rz's phase) is kept, with no reduction run.
  for (const unsigned shards : {0u, 4u}) {
    std::unique_ptr<sim::Backend> sv =
        shards == 0 ? sim::make_backend(sim::BackendKind::kSerial, 9)
                    : sim::make_backend(sim::BackendKind::kSharded, 9, shards);
    const auto q = sv->allocate(4);
    sv->ry(q[0], 0.8);
    sv->ry(q[3], -1.3);
    sv->cnot(q[0], q[2]);
    sv->x(q[1]);
    sv->rz(q[1], 0.7);
    const auto before = sv->snapshot();
    const std::size_t pos = sv->position_of(q[1]);
    sv->deallocate_classical(q[1]);
    expect_exact(sv->snapshot(), gather_half(before, pos, true));
  }
}

TEST(InPlaceCompaction, MatchesTheGatherAtEveryPositionAndBit) {
  // n = 1..14 covers element-loop runs (2^pos of length 1 and 2) and
  // block-copy runs of every length up to 2^13.
  for (std::size_t n = 1; n <= 14; ++n) {
    for (std::size_t pos = 0; pos < n; ++pos) {
      for (const bool bit : {false, true}) {
        sim::StateVector sv(100 + n);
        const auto q = sv.allocate(n);
        for (std::size_t i = 0; i < n; ++i) {
          sv.ry(q[i], 0.3 + 0.17 * static_cast<double>(i));
          sv.rz(q[i], -0.2 + 0.11 * static_cast<double>(i));
        }
        for (std::size_t i = 0; i + 1 < n; ++i) sv.cnot(q[i], q[i + 1]);
        if (sv.measure(q[pos]) != bit) sv.x(q[pos]);
        const std::vector<Complex> before = sv.snapshot();
        const std::size_t capacity = sv.amplitudes().capacity();
        sv.deallocate_classical(q[pos]);
        expect_exact(sv.amplitudes(), gather_half(before, pos, bit));
        EXPECT_EQ(sv.amplitudes().capacity(), capacity)
            << "n=" << n << " pos=" << pos;
      }
    }
  }
}

TEST(LifecycleProgram, BitIdenticalAcrossBackendsAndCloseToUnfused) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    sim::StateVector serial(seed);
    std::vector<double> serial_log;
    lifecycle_program(serial, seed, serial_log);
    const auto ref = serial.snapshot();

    sim::StateVector unfused(seed);
    unfused.set_fusion_enabled(false);
    std::vector<double> unfused_log;
    lifecycle_program(unfused, seed, unfused_log);
    ASSERT_EQ(unfused_log.size(), serial_log.size()) << "seed=" << seed;
    for (std::size_t i = 0; i < serial_log.size(); ++i) {
      EXPECT_NEAR(unfused_log[i], serial_log[i], 1e-9) << "seed=" << seed;
    }
    const auto u = unfused.snapshot();
    ASSERT_EQ(u.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_NEAR(std::abs(u[i] - ref[i]), 0.0, 1e-9) << "seed=" << seed;
    }

    for (const unsigned shards : {1u, 2u, 4u, 8u}) {
      sim::ShardedStateVector sharded(shards, seed);
      sharded.set_num_threads(2);
      std::vector<double> sharded_log;
      lifecycle_program(sharded, seed, sharded_log);
      ASSERT_EQ(sharded_log, serial_log)
          << "seed=" << seed << " shards=" << shards;
      expect_exact(sharded.snapshot(), ref);
    }
  }
}

namespace {

/// How a test brings the freed qubit to a known value with one gate still
/// pending on it, and how it frees it.
enum class Free { kDeallocate, kClassicalFromOne, kClassicalFromZero };

/// Entangles six qubits with fusion off, measures `t` (the one at position
/// `t_pos`) and makes it a known |1> (kDeallocate, kClassicalFromOne) or
/// |0> (kClassicalFromZero). Then, with fusion set to `fused`, runs
/// `last(sv, t)` and frees `t`. With `other_pending`, a rotation on
/// another qubit is queued first and stays pending through the free.
template <typename Last>
void free_after(sim::Backend& sv, bool fused, std::size_t t_pos, Free how,
                bool other_pending, Last&& last) {
  sv.set_fusion_enabled(false);
  const auto q = sv.allocate(6);
  const sim::QubitId t = q[t_pos];
  for (std::size_t i = 0; i < q.size(); ++i) {
    sv.ry(q[i], 0.5 + 0.2 * static_cast<double>(i));
  }
  for (std::size_t i = 0; i + 1 < q.size(); ++i) sv.cnot(q[i], q[i + 1]);
  const bool want = how != Free::kClassicalFromZero;
  if (sv.measure(t) != want) sv.x(t);
  sv.set_fusion_enabled(fused);
  if (other_pending) sv.ry(q[(t_pos + 1) % q.size()], 0.3);
  last(sv, t);
  if (how == Free::kDeallocate) {
    sv.deallocate(t);
  } else {
    sv.deallocate_classical(t);
  }
}

std::unique_ptr<sim::Backend> backend_for(unsigned shards) {
  return shards == 0
             ? sim::make_backend(sim::BackendKind::kSerial, 21)
             : sim::make_backend(sim::BackendKind::kSharded, 21, shards);
}

bool same_bytes(const std::vector<Complex>& a, const std::vector<Complex>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) == 0;
}

}  // namespace

TEST(FreeRelabel, PendingLoneXIsFoldedIntoTheKeptHalf) {
  // A lone X pending on a known qubit is dropped at its free, and the
  // other half is kept: byte-identical to a fusion-off backend, which
  // applies the X as a swap sweep first, and with no cluster applied. The
  // rotation pending on another qubit stays pending through the free.
  const auto x = [](sim::Backend& sv, sim::QubitId t) { sv.x(t); };
  for (const unsigned shards : {0u, 1u, 2u, 4u}) {
    for (const std::size_t t_pos : {0u, 1u, 3u, 5u}) {
      for (const Free how : {Free::kDeallocate, Free::kClassicalFromOne,
                             Free::kClassicalFromZero}) {
        const std::string where = "shards=" + std::to_string(shards) +
                                  " pos=" + std::to_string(t_pos) +
                                  " how=" +
                                  std::to_string(static_cast<int>(how));
        auto fused = backend_for(shards);
        auto unfused = backend_for(shards);
        free_after(*fused, true, t_pos, how, true, x);
        free_after(*unfused, false, t_pos, how, true, x);
        EXPECT_EQ(fused->pending_clusters(), 1u) << where;
        EXPECT_EQ(fused->applied_clusters(), 0u) << where;
        EXPECT_EQ(fused->num_qubits(), 5u) << where;
        EXPECT_TRUE(same_bytes(fused->snapshot(), unfused->snapshot()))
            << where;
      }
    }
  }
}

TEST(FreeRelabel, EveryOtherPendingGateStillSweeps) {
  // Only exactly X, alone on the qubit, is folded. Everything else is
  // applied before the free, as the one cluster it fused into: the state
  // ends in the bytes of a run that flushes before freeing. (Nothing else
  // is pending: a cluster on other qubits applied before rather than after
  // the free would round differently.)
  using Last = void (*)(sim::Backend&, sim::QubitId);
  const std::vector<std::pair<const char*, Last>> cases = {
      {"controlled X",
       [](sim::Backend& sv, sim::QubitId t) {
         const sim::QubitId c = sv.allocate(1).front();
         sv.x(c);
         sv.cnot(c, t);
       }},
      {"X fused with Rz",
       [](sim::Backend& sv, sim::QubitId t) {
         sv.x(t);
         sv.rz(t, 0.7);
       }},
      {"Y", [](sim::Backend& sv, sim::QubitId t) { sv.y(t); }},
      {"antidiagonal with a phase",
       [](sim::Backend& sv, sim::QubitId t) {
         sv.apply(sim::Gate1Q{{0, Complex(0, 1), Complex(0, 1), 0}, "iX"},
                  t);
       }},
      {"X in a cluster with a second qubit",
       [](sim::Backend& sv, sim::QubitId t) {
         const sim::QubitId u = sv.allocate(1).front();
         sv.h(u);
         sv.x(t);
         sv.cz(t, u);
       }},
  };
  for (const auto& [name, last] : cases) {
    for (const unsigned shards : {0u, 2u}) {
      for (const Free how : {Free::kDeallocate, Free::kClassicalFromOne}) {
        const std::string where = std::string(name) +
                                  " shards=" + std::to_string(shards) +
                                  " how=" +
                                  std::to_string(static_cast<int>(how));
        auto lazy = backend_for(shards);
        auto flushed = backend_for(shards);
        free_after(*lazy, true, 2, how, false, last);
        free_after(*flushed, true, 2, how, false,
                   [last](sim::Backend& sv, sim::QubitId t) {
                     last(sv, t);
                     sv.flush_gates();
                   });
        EXPECT_EQ(lazy->applied_clusters(), 1u) << where;
        EXPECT_TRUE(same_bytes(lazy->snapshot(), flushed->snapshot()))
            << where;
      }
    }
  }
}
