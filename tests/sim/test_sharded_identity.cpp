// Shard/serial bit-identity regression tests (the sharded sibling of
// test_parallel_identity.cpp).
//
// The ShardedStateVector performs the same arithmetic per logical basis
// state as the serial StateVector — local gates run the same kernels per
// slice, a gate on a global qubit first swaps it local (pure data
// movement), a block wider than the slices gathers with the same per-block
// arithmetic, and reductions enumerate logical indices with the shared chunked
// combine. So for ANY shard count the amplitudes must match the serial
// backend with operator== on the raw doubles — no tolerance — and, the
// RNG draws being shared via Backend, every measurement outcome must match
// draw for draw.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <random>
#include <vector>

#include "sim/sharded_statevector.hpp"
#include "sim/statevector.hpp"

namespace sim = qmpi::sim;
using sim::Complex;

namespace {

// 8 shards leave 2^10 local amplitudes per slice; global qubits are
// positions kQubits-3 and up at the largest shard count (in the order
// allocate_in_physical_order lists them).
constexpr std::size_t kQubits = 13;

/// Allocates `n` qubits, listed so that on a fresh `shards`-slice register
/// q[i] sits on physical bit i. A sharded register puts every qubit
/// allocated once all slices are active on a new top local bit, so its
/// first log2(shards) qubits hold the global bits: listing them last makes
/// q[n-1], q[n-2], ... global. Both backends get the same list, so
/// programs stay identical.
std::vector<sim::QubitId> allocate_in_physical_order(sim::Backend& sv,
                                                     std::size_t n,
                                                     unsigned shards) {
  std::vector<sim::QubitId> q = sv.allocate(n);
  std::rotate(q.begin(), q.begin() + std::countr_zero(shards), q.end());
  return q;
}

const unsigned kShardCounts[] = {1, 2, 4, 8};

void expect_bit_identical(const sim::Backend& serial,
                          const sim::Backend& sharded) {
  const auto a = serial.snapshot();
  const auto b = sharded.snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].real(), b[i].real()) << "amplitude " << i;
    ASSERT_EQ(a[i].imag(), b[i].imag()) << "amplitude " << i;
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

/// Like prepare, but entangles and rotates only q[0..local) and applies
/// diagonal gates to the rest. No relabel swap runs, so on a sharded
/// register the layout stays as allocated and q[local..] stay global.
void prepare_local(sim::Backend& sv, const std::vector<sim::QubitId>& q,
                   std::size_t local) {
  for (std::size_t i = 0; i < local; ++i) {
    sv.ry(q[i], 0.3 + 0.11 * static_cast<double>(i));
  }
  for (std::size_t i = 0; i + 1 < local; ++i) sv.cnot(q[i], q[i + 1]);
  for (std::size_t i = 0; i < q.size(); ++i) {
    sv.rz(q[i], -0.7 + 0.05 * static_cast<double>(i));
  }
  sv.flush_gates();
}

/// Runs `program` on a serial StateVector and a `shards`-slice
/// ShardedStateVector (same seed) and asserts bit-identical amplitudes.
template <typename Program>
void check_identity(Program&& program, unsigned shards) {
  sim::StateVector serial(1234);
  sim::ShardedStateVector sharded(shards, 1234);
  const auto qs = allocate_in_physical_order(serial, kQubits, shards);
  const auto qt = allocate_in_physical_order(sharded, kQubits, shards);
  prepare(serial, qs);
  prepare(sharded, qt);
  program(serial, qs);
  program(sharded, qt);
  expect_bit_identical(serial, sharded);
}

}  // namespace

TEST(ShardedIdentity, ConstructionRequiresPowerOfTwo) {
  EXPECT_THROW(sim::ShardedStateVector sv(3), sim::SimulatorError);
  EXPECT_THROW(sim::ShardedStateVector sv(6), sim::SimulatorError);
  EXPECT_NO_THROW(sim::ShardedStateVector sv(4));
}

TEST(ShardedIdentity, LocalAndGlobalSingleQubitGates) {
  for (const unsigned s : kShardCounts) {
    check_identity(
        [](sim::Backend& sv, const std::vector<sim::QubitId>& q) {
          sv.h(q[2]);                    // local at every shard count
          sv.ry(q[kQubits - 1], 1.234);  // global for any s > 1
          sv.h(q[kQubits - 2]);
          sv.flush_gates();
        },
        s);
  }
}

TEST(ShardedIdentity, GlobalDiagonalGatesNeedNoExchange) {
  for (const unsigned s : kShardCounts) {
    sim::StateVector serial(7);
    sim::ShardedStateVector sharded(s, 7);
    const auto qs = allocate_in_physical_order(serial, kQubits, s);
    const auto qt = allocate_in_physical_order(sharded, kQubits, s);
    prepare(serial, qs);
    prepare(sharded, qt);
    const std::uint64_t clusters_before = sharded.cluster_sweeps();
    const std::uint64_t relabels_before = sharded.relabel_swaps();
    auto program = [](sim::Backend& sv,
                      const std::vector<sim::QubitId>& q) {
      sv.rz(q[kQubits - 1], 0.81);  // general diagonal, global
      sv.t(q[kQubits - 2]);         // phase-type, global
      sv.z(q[kQubits - 1]);
      sv.flush_gates();
    };
    program(serial, qs);
    program(sharded, qt);
    // Diagonal gates never pay communication, no matter the target.
    EXPECT_EQ(sharded.cluster_sweeps(), clusters_before);
    EXPECT_EQ(sharded.relabel_swaps(), relabels_before);
    expect_bit_identical(serial, sharded);
  }
}

TEST(ShardedIdentity, ControlledGatesAcrossTheSplit) {
  for (const unsigned s : kShardCounts) {
    check_identity(
        [](sim::Backend& sv, const std::vector<sim::QubitId>& q) {
          sv.cnot(q[0], q[kQubits - 1]);  // local ctrl, global target
          sv.cnot(q[kQubits - 1], q[1]);  // global ctrl, local target
          sv.cz(q[kQubits - 2], q[2]);
          sv.toffoli(q[kQubits - 1], q[3], q[kQubits - 2]);
          const sim::QubitId controls[] = {q[1], q[kQubits - 2], q[4]};
          sv.apply_controlled(sim::gate_ry(0.456), controls, q[5]);
          sv.swap(q[0], q[kQubits - 1]);
        },
        s);
  }
}

TEST(ShardedIdentity, MeasurementAndCollapse) {
  for (const unsigned s : kShardCounts) {
    sim::StateVector serial(42);
    sim::ShardedStateVector sharded(s, 42);
    const auto qs = allocate_in_physical_order(serial, kQubits, s);
    const auto qt = allocate_in_physical_order(sharded, kQubits, s);
    prepare(serial, qs);
    prepare(sharded, qt);
    // Same RNG seed + bit-identical probabilities => same outcomes.
    EXPECT_EQ(serial.measure(qs[4]), sharded.measure(qt[4]));
    EXPECT_EQ(serial.measure(qs[kQubits - 1]),
              sharded.measure(qt[kQubits - 1]));  // global qubit
    EXPECT_EQ(serial.measure_x(qs[10]), sharded.measure_x(qt[10]));
    expect_bit_identical(serial, sharded);
  }
}

TEST(ShardedIdentity, ParityMeasurementSpanningShards) {
  for (const unsigned s : kShardCounts) {
    sim::StateVector serial(42);
    sim::ShardedStateVector sharded(s, 42);
    const auto qs = allocate_in_physical_order(serial, kQubits, s);
    const auto qt = allocate_in_physical_order(sharded, kQubits, s);
    prepare(serial, qs);
    prepare(sharded, qt);
    const sim::QubitId js[] = {qs[0], qs[6], qs[kQubits - 1]};
    const sim::QubitId jt[] = {qt[0], qt[6], qt[kQubits - 1]};
    EXPECT_EQ(serial.measure_parity(js), sharded.measure_parity(jt));
    expect_bit_identical(serial, sharded);
  }
}

TEST(ShardedIdentity, ReleaseAllocateDynamics) {
  for (const unsigned s : kShardCounts) {
    sim::StateVector serial(99);
    sim::ShardedStateVector sharded(s, 99);
    auto qs = allocate_in_physical_order(serial, kQubits, s);
    auto qt = allocate_in_physical_order(sharded, kQubits, s);
    prepare(serial, qs);
    prepare(sharded, qt);
    // Shrink below, then grow past, the shard budget's comfort zone.
    EXPECT_EQ(serial.release(qs[7]), sharded.release(qt[7]));
    EXPECT_EQ(serial.release(qs[kQubits - 1]),
              sharded.release(qt[kQubits - 1]));
    const auto ns = serial.allocate(3);
    const auto nt = sharded.allocate(3);
    auto post = [](sim::Backend& sv, const std::vector<sim::QubitId>& fresh,
                   sim::QubitId old) {
      sv.h(fresh[2]);
      sv.cnot(fresh[2], old);
      sv.ry(fresh[0], 0.37);
    };
    post(serial, ns, qs[0]);
    post(sharded, nt, qt[0]);
    expect_bit_identical(serial, sharded);
    EXPECT_EQ(serial.num_qubits(), sharded.num_qubits());
  }
}

TEST(ShardedIdentity, DeallocateValidatesLikeSerial) {
  sim::ShardedStateVector sharded(4, 5);
  const auto q = sharded.allocate(6);
  sharded.h(q[5]);
  EXPECT_THROW(sharded.deallocate(q[5]), sim::SimulatorError);
  sharded.h(q[5]);  // fuses back to identity
  EXPECT_NO_THROW(sharded.deallocate(q[5]));
  EXPECT_EQ(sharded.num_qubits(), 5u);
}

TEST(ShardedIdentity, PauliRotationDiagonalAndGeneral) {
  for (const unsigned s : kShardCounts) {
    check_identity(
        [](sim::Backend& sv, const std::vector<sim::QubitId>& q) {
          const std::pair<sim::QubitId, char> zz[] = {
              {q[2], 'Z'}, {q[kQubits - 1], 'Z'}};
          sv.apply_pauli_rotation(zz, 0.37);  // diagonal path
          const std::pair<sim::QubitId, char> xyz[] = {
              {q[1], 'X'}, {q[8], 'Y'}, {q[kQubits - 1], 'Z'}};
          sv.apply_pauli_rotation(xyz, -0.21);  // pair path across shards
          const std::pair<sim::QubitId, char> xx[] = {
              {q[kQubits - 1], 'X'}, {q[kQubits - 2], 'X'}};
          sv.apply_pauli_rotation(xx, 0.11);  // flips only global bits
        },
        s);
  }
}

TEST(ShardedIdentity, ScalarObservablesExactlyEqual) {
  for (const unsigned s : kShardCounts) {
    sim::StateVector serial(99);
    sim::ShardedStateVector sharded(s, 99);
    const auto qs = allocate_in_physical_order(serial, kQubits, s);
    const auto qt = allocate_in_physical_order(sharded, kQubits, s);
    prepare(serial, qs);
    prepare(sharded, qt);
    // Reductions share chunk size and combine order, so these must match
    // to the last bit, not within tolerance.
    ASSERT_EQ(serial.norm(), sharded.norm()) << "shards=" << s;
    ASSERT_EQ(serial.probability_one(qs[5]), sharded.probability_one(qt[5]));
    ASSERT_EQ(serial.probability_one(qs[kQubits - 1]),
              sharded.probability_one(qt[kQubits - 1]));
    const std::pair<sim::QubitId, char> ps[] = {
        {qs[0], 'X'}, {qs[4], 'Y'}, {qs[kQubits - 1], 'Z'}};
    const std::pair<sim::QubitId, char> pt[] = {
        {qt[0], 'X'}, {qt[4], 'Y'}, {qt[kQubits - 1], 'Z'}};
    ASSERT_EQ(serial.expectation(ps), sharded.expectation(pt));
    // Per-basis-state access agrees too (spot-check one state).
    bool bits[kQubits] = {};
    bits[0] = bits[kQubits - 1] = true;
    ASSERT_EQ(serial.amplitude(qs, bits), sharded.amplitude(qt, bits));
  }
}

TEST(ShardedIdentity, RelabelPolicyKeepsHotQubitsLocal) {
  sim::StateVector serial(1);
  sim::ShardedStateVector sharded(4, 1);
  const auto qs = allocate_in_physical_order(serial, kQubits, 4);
  const auto q = allocate_in_physical_order(sharded, kQubits, 4);
  // Diagonal and local gates only, so q[kQubits-1] is still physically
  // global when the program below starts.
  prepare_local(serial, qs, kQubits - 2);
  prepare_local(sharded, q, kQubits - 2);
  ASSERT_EQ(sharded.relabel_swaps(), 0u);
  const std::uint64_t clusters_before = sharded.cluster_sweeps();
  auto program = [](sim::Backend& sv, const std::vector<sim::QubitId>& p,
                    int step) {
    if (step < 0) {
      sv.h(p[kQubits - 1]);
    } else {
      sv.ry(p[kQubits - 1], 0.1 * step);
    }
    sv.flush_gates();
  };
  // First general gate on a global qubit pays one relabeling pass...
  program(serial, qs, -1);
  program(sharded, q, -1);
  EXPECT_EQ(sharded.relabel_swaps(), 1u);
  EXPECT_EQ(sharded.cluster_sweeps(), clusters_before);
  // ...and every follow-up on the now-local qubit is free of communication.
  for (int i = 0; i < 5; ++i) {
    program(serial, qs, i);
    program(sharded, q, i);
  }
  EXPECT_EQ(sharded.relabel_swaps(), 1u);
  EXPECT_EQ(sharded.cluster_sweeps(), clusters_before);
  expect_bit_identical(serial, sharded);
}

TEST(ShardedIdentity, GatesWhileEveryBitIsGlobalGather) {
  // With n <= log2(shards) there is no local bit to swap a target into:
  // every non-diagonal gate, controlled or not, gathers its pairs across
  // slices. With fusion off each gate goes down the 1Q route.
  for (const unsigned s : {2U, 4U, 8U}) {
    const auto n = static_cast<std::size_t>(std::countr_zero(s));
    auto program = [n](sim::Backend& sv, const std::vector<sim::QubitId>& q) {
      for (std::size_t i = 0; i < n; ++i) {
        sv.ry(q[i], 0.4 + 0.3 * static_cast<double>(i));
        sv.rx(q[i], -0.2 - 0.1 * static_cast<double>(i));
      }
      sv.h(q[0]);
      sv.y(q[n - 1]);
      sv.x(q[0]);
      if (n >= 2) {
        sv.cnot(q[0], q[n - 1]);
        const sim::QubitId controls[] = {q[n - 1]};
        sv.apply_controlled(sim::gate_rx(0.77), controls, q[0]);
      }
      if (n >= 3) {
        const sim::QubitId controls[] = {q[2], q[0]};
        sv.apply_controlled(sim::gate_ry(-1.3), controls, q[1]);
      }
    };
    sim::StateVector serial(5);
    sim::ShardedStateVector sharded(s, 5);
    serial.set_fusion_enabled(false);
    sharded.set_fusion_enabled(false);
    auto qs = serial.allocate(n);
    auto qt = sharded.allocate(n);
    program(serial, qs);
    program(sharded, qt);
    EXPECT_EQ(sharded.relabel_swaps(), 0u) << "shards=" << s;
    EXPECT_EQ(sharded.cluster_sweeps(), 0u) << "shards=" << s;
    expect_bit_identical(serial, sharded);
    // Once local bits exist, the same gates swap their targets local.
    const auto ns = serial.allocate(2);
    const auto nt = sharded.allocate(2);
    qs.insert(qs.end(), ns.begin(), ns.end());
    qt.insert(qt.end(), nt.begin(), nt.end());
    program(serial, qs);
    program(sharded, qt);
    EXPECT_GT(sharded.relabel_swaps(), 0u) << "shards=" << s;
    expect_bit_identical(serial, sharded);
  }
}

TEST(ShardedIdentity, RandomCircuitsWithMeasurement) {
  for (const unsigned s : kShardCounts) {
    sim::StateVector serial(777);
    sim::ShardedStateVector sharded(s, 777);
    auto qs = allocate_in_physical_order(serial, kQubits, s);
    auto qt = allocate_in_physical_order(sharded, kQubits, s);
    std::mt19937_64 rng(4242);  // one program, replayed on both backends
    std::uniform_real_distribution<double> angle(-3.0, 3.0);
    std::uniform_int_distribution<std::size_t> pick(0, kQubits - 1);
    std::uniform_int_distribution<int> choice(0, 5);
    for (int step = 0; step < 60; ++step) {
      const auto i = pick(rng);
      auto j = pick(rng);
      while (j == i) j = pick(rng);
      switch (choice(rng)) {
        case 0: {
          const double a = angle(rng);
          serial.ry(qs[i], a);
          sharded.ry(qt[i], a);
          break;
        }
        case 1: {
          const double a = angle(rng);
          serial.rz(qs[j], a);
          sharded.rz(qt[j], a);
          break;
        }
        case 2:
          serial.h(qs[i]);
          sharded.h(qt[i]);
          break;
        case 3:
          serial.t(qs[j]);
          sharded.t(qt[j]);
          break;
        case 4:
          serial.cnot(qs[i], qs[j]);
          sharded.cnot(qt[i], qt[j]);
          break;
        default:
          EXPECT_EQ(serial.measure(qs[i]), sharded.measure(qt[i]))
              << "shards=" << s << " step=" << step;
          break;
      }
    }
    EXPECT_EQ(serial.measure(qs[0]), sharded.measure(qt[0]));
    expect_bit_identical(serial, sharded);
    ASSERT_EQ(serial.norm(), sharded.norm());
  }
}

TEST(ShardedIdentity, ThreadedShardsStayBitIdentical) {
  // Large enough that sweeps cross kMinParallel and the relabel-swap phases
  // really run on pool workers — the configuration TSan wants to see.
  constexpr std::size_t kBig = 17;
  for (const unsigned s : {2U, 4U}) {
    for (const unsigned t : {2U, 4U}) {
      sim::StateVector serial(31);
      sim::ShardedStateVector sharded(s, 31);
      sharded.set_num_threads(t);
      const auto qs = allocate_in_physical_order(serial, kBig, s);
      const auto qt = allocate_in_physical_order(sharded, kBig, s);
      prepare(serial, qs);
      prepare(sharded, qt);
      auto program = [](sim::Backend& sv,
                        const std::vector<sim::QubitId>& q) {
        sv.h(q[kBig - 1]);
        sv.cnot(q[0], q[kBig - 1]);
        sv.cnot(q[kBig - 1], q[3]);
        sv.ry(q[kBig - 2], 0.77);
        (void)sv.measure(q[kBig - 1]);
      };
      program(serial, qs);
      program(sharded, qt);
      expect_bit_identical(serial, sharded);
    }
  }
}

TEST(ShardedIdentity, SerialSnapshotMatchesRawAmplitudes) {
  sim::StateVector sv(3);
  const auto q = sv.allocate(6);
  prepare(sv, q);
  const auto snap = sv.snapshot();
  const auto& raw = sv.amplitudes();
  ASSERT_EQ(snap.size(), raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) EXPECT_EQ(snap[i], raw[i]);
}

TEST(ShardedIdentity, FactoryMakesBothKinds) {
  const auto serial = sim::make_backend(sim::BackendKind::kSerial);
  const auto sharded =
      sim::make_backend(sim::BackendKind::kSharded, sim::kDefaultSeed, 4);
  EXPECT_STREQ(serial->name(), "serial");
  EXPECT_STREQ(sharded->name(), "sharded");
}
