// Cluster-fusion correctness: adjacent 1Q and controlled/2Q gates on
// overlapping qubit sets merge into one k-qubit cluster (k <= 4) and are
// applied in a single block sweep. The contract tested here:
//
//  1. Fused execution matches gate-by-gate (fusion disabled) execution on
//     random circuits — and is *bit-identical* whenever the circuit stays
//     inside one cluster, because the flush replays the ops with the exact
//     per-gate kernel arithmetic (only the queue's reordering of disjoint,
//     commuting clusters and the composition of same-target runs can
//     introduce last-bit rounding differences).
//  2. Fused execution on the ShardedStateVector is bit-identical to fused
//     execution on the serial StateVector at 1/2/4/8 shards — the
//     shard/serial contract of PR 2 extends to clusters.
//  3. A fused cluster whose qubits fit the local budget is pulled local by
//     the LRU relabel pass and then sweeps slice by slice; a wider one
//     gathers its blocks across slices.
//  4. Deallocation with a pending cluster on the qubit flushes before the
//     collapse/removal path runs, identically on both backends.
//  5. FusionQueue::take() + the flush loop make a reentrant push
//     flush-correct (the old drain() deferred it past the boundary).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <random>
#include <vector>

#include "sim/fusion.hpp"
#include "sim/sharded_statevector.hpp"
#include "sim/statevector.hpp"

namespace sim = qmpi::sim;
using sim::Complex;

namespace {

void expect_close(const std::vector<Complex>& a, const std::vector<Complex>& b,
                  double eps = 1e-10) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(std::abs(a[i] - b[i]), 0.0, eps) << "amplitude " << i;
  }
}

void expect_exact(const std::vector<Complex>& a,
                  const std::vector<Complex>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].real(), b[i].real()) << "amplitude " << i;
    ASSERT_EQ(a[i].imag(), b[i].imag()) << "amplitude " << i;
  }
}

/// One recorded random-circuit step, replayable on any backend so every
/// backend sees the exact same program.
struct Op {
  int kind;
  std::size_t a, b, c;
  double angle;
};

std::vector<Op> random_program(std::uint64_t seed, std::size_t nq,
                               int steps) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> angle(-3.0, 3.0);
  std::uniform_int_distribution<std::size_t> pick(0, nq - 1);
  std::uniform_int_distribution<int> choice(0, 8);
  std::vector<Op> prog;
  prog.reserve(static_cast<std::size_t>(steps));
  for (int s = 0; s < steps; ++s) {
    Op op;
    op.kind = choice(rng);
    op.a = pick(rng);
    op.b = pick(rng);
    while (op.b == op.a) op.b = pick(rng);
    op.c = pick(rng);
    while (op.c == op.a || op.c == op.b) op.c = pick(rng);
    op.angle = angle(rng);
    prog.push_back(op);
  }
  return prog;
}

void run_program(sim::Backend& sv, const std::vector<sim::QubitId>& q,
                 const std::vector<Op>& prog) {
  for (const Op& op : prog) {
    switch (op.kind) {
      case 0:
        sv.ry(q[op.a], op.angle);
        break;
      case 1:
        sv.rz(q[op.a], op.angle);
        break;
      case 2:
        sv.h(q[op.a]);
        break;
      case 3:
        sv.t(q[op.a]);
        break;
      case 4:
        sv.x(q[op.a]);
        break;
      case 5:
        sv.cnot(q[op.a], q[op.b]);
        break;
      case 6:
        sv.cz(q[op.a], q[op.b]);
        break;
      case 7: {
        const sim::QubitId controls[] = {q[op.a]};
        sv.apply_controlled(sim::gate_ry(op.angle), controls, q[op.b]);
        break;
      }
      default:
        sv.toffoli(q[op.a], q[op.b], q[op.c]);
        break;
    }
  }
}

}  // namespace

TEST(ClusterFusion, FusedMatchesUnfusedOnRandomCircuits) {
  for (const std::size_t nq : {6u, 9u, 12u}) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const auto prog = random_program(seed * 131 + nq, nq, 120);
      sim::StateVector fused(1), eager(1);
      eager.set_fusion_enabled(false);
      const auto qf = fused.allocate(nq);
      const auto qe = eager.allocate(nq);
      run_program(fused, qf, prog);
      run_program(eager, qe, prog);
      expect_close(fused.snapshot(), eager.snapshot());
      ASSERT_NEAR(fused.norm(), 1.0, 1e-10);
    }
  }
}

TEST(ClusterFusion, FusedShardedBitIdenticalToFusedSerial) {
  for (const unsigned shards : {1u, 2u, 4u, 8u}) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      const std::size_t nq = 6 + 3 * (seed % 3);  // 6, 9, 12
      const auto prog = random_program(seed * 977 + shards, nq, 120);
      sim::StateVector serial(42);
      sim::ShardedStateVector sharded(shards, 42);
      const auto qs = serial.allocate(nq);
      const auto qt = sharded.allocate(nq);
      run_program(serial, qs, prog);
      run_program(sharded, qt, prog);
      expect_exact(serial.snapshot(), sharded.snapshot());
      ASSERT_EQ(serial.norm(), sharded.norm());
    }
  }
}

TEST(ClusterFusion, SingleClusterReplayIsBitIdenticalToUnfused) {
  // Every gate below overlaps the {q0,q1,q2} cluster and no two
  // consecutive gates share (target, controls), so nothing composes and
  // the flush replays the exact program order: the block-replay sweep must
  // reproduce gate-by-gate execution to the last bit.
  auto program = [](sim::Backend& sv, const std::vector<sim::QubitId>& q) {
    sv.h(q[0]);
    sv.cnot(q[0], q[1]);
    sv.rz(q[1], 0.37);
    sv.cnot(q[1], q[2]);
    sv.ry(q[2], -1.1);
    sv.cz(q[0], q[2]);
    sv.t(q[1]);
    sv.toffoli(q[0], q[1], q[2]);
  };
  sim::StateVector fused(5), eager(5);
  eager.set_fusion_enabled(false);
  const auto qf = fused.allocate(3);
  const auto qe = eager.allocate(3);
  program(fused, qf);
  program(eager, qe);
  EXPECT_EQ(fused.pending_clusters(), 1u);
  EXPECT_EQ(fused.pending_gates(), 8u);
  expect_exact(fused.snapshot(), eager.snapshot());

  // And the same cluster on the sharded backend, at a shard count that
  // forces the cross-slice machinery (3 qubits, 4 shards -> 1 local bit).
  for (const unsigned shards : {2u, 4u}) {
    sim::ShardedStateVector sharded(shards, 5);
    const auto qt = sharded.allocate(3);
    program(sharded, qt);
    expect_exact(sharded.snapshot(), eager.snapshot());
  }
}

TEST(ClusterFusion, QubitCapEvictsAndStaysCorrect) {
  // A CNOT ladder over 8 qubits cannot fit one 4-qubit cluster; pushes
  // must evict-and-apply overlapping clusters without losing gates.
  constexpr std::size_t kN = 8;
  sim::StateVector fused(9), eager(9);
  eager.set_fusion_enabled(false);
  const auto qf = fused.allocate(kN);
  const auto qe = eager.allocate(kN);
  auto program = [](sim::Backend& sv, const std::vector<sim::QubitId>& q) {
    for (std::size_t i = 0; i < kN; ++i) sv.ry(q[i], 0.2 + 0.1 * i);
    for (std::size_t i = 0; i + 1 < kN; ++i) sv.cnot(q[i], q[i + 1]);
    for (std::size_t i = 0; i < kN; ++i) sv.rz(q[i], -0.4 + 0.07 * i);
  };
  program(fused, qf);
  EXPECT_GT(fused.pending_clusters(), 1u);  // one cluster cannot hold 8 qubits
  program(eager, qe);
  expect_close(fused.snapshot(), eager.snapshot());

  // White-box at the queue level: replay the same ladder shape into a raw
  // FusionQueue and check every cluster — pending or evicted — honors the
  // qubit and op caps individually.
  sim::FusionQueue queue;
  std::vector<sim::GateCluster> evicted;
  for (std::uint64_t q = 1; q <= kN; ++q) {
    queue.push(sim::gate_ry(0.1), {}, q, evicted);
  }
  for (std::uint64_t q = 1; q < kN; ++q) {
    const std::uint64_t ctrl[] = {q};
    queue.push(sim::gate_x(), ctrl, q + 1, evicted);
  }
  std::vector<sim::GateCluster> all = queue.take();
  all.insert(all.end(), std::make_move_iterator(evicted.begin()),
             std::make_move_iterator(evicted.end()));
  std::size_t total_ops = 0;
  for (const sim::GateCluster& c : all) {
    EXPECT_LE(c.num_qubits(), sim::kMaxFusedQubits);
    EXPECT_LE(c.num_ops(), sim::kMaxFusedOps);
    total_ops += c.num_ops();
  }
  // Nothing lost: 8 ry (each its own op) + 7 cnot.
  EXPECT_EQ(total_ops, kN + (kN - 1));
}

TEST(ClusterFusion, OpsCapBoundsClusterGrowth) {
  // Alternating CNOT directions on one pair never compose; the ops cap
  // must evict instead of growing the replay list without bound.
  sim::StateVector fused(3), eager(3);
  eager.set_fusion_enabled(false);
  const auto qf = fused.allocate(2);
  const auto qe = eager.allocate(2);
  auto program = [](sim::Backend& sv, const std::vector<sim::QubitId>& q) {
    sv.ry(q[0], 0.9);
    for (int i = 0; i < 40; ++i) {
      sv.cnot(q[0], q[1]);
      sv.cnot(q[1], q[0]);
    }
  };
  program(fused, qf);
  EXPECT_LE(fused.pending_gates(), sim::kMaxFusedOps);
  program(eager, qe);
  expect_close(fused.snapshot(), eager.snapshot(), 1e-12);
}

TEST(ClusterFusion, OversizedControlledGateAppliesEagerly) {
  // 4 controls + target = 5 qubits: beyond the cluster cap, so the gate
  // flushes the queue and applies through the direct controlled kernel.
  sim::StateVector fused(11), eager(11);
  eager.set_fusion_enabled(false);
  const auto qf = fused.allocate(5);
  const auto qe = eager.allocate(5);
  auto program = [](sim::Backend& sv, const std::vector<sim::QubitId>& q) {
    for (std::size_t i = 0; i < 5; ++i) sv.h(q[i]);
    const sim::QubitId controls[] = {q[0], q[1], q[2], q[3]};
    sv.apply_controlled(sim::gate_ry(0.77), controls, q[4]);
  };
  program(fused, qf);
  EXPECT_EQ(fused.pending_gates(), 0u);  // flushed by the oversized gate
  program(eager, qe);
  expect_exact(fused.snapshot(), eager.snapshot());
}

TEST(ClusterFusion, LocalizedClusterNeedsZeroExchanges) {
  // 10 qubits, 4 shards -> 8 local bits. A cluster on the two *global*
  // qubits fits the local budget, so the planner relabels it local (LRU
  // victims) and the sweep itself moves no amplitude between slices.
  // Qubits allocated once all four slices are active take new local bits,
  // so q[0] and q[1] are the global ones; they get diagonal gates only
  // before the cluster, so the layout stays as allocated until it flushes.
  constexpr std::size_t kN = 10;
  const auto prepare = [](sim::Backend& sv,
                          const std::vector<sim::QubitId>& q) {
    for (std::size_t i = 0; i < kN; ++i) {
      if (i < 2) {
        sv.rz(q[i], 0.1 + 0.05 * i);
      } else {
        sv.ry(q[i], 0.1 + 0.05 * i);
      }
    }
    sv.flush_gates();
  };
  // Both qubits global at 4 shards; three ops so the cluster path runs.
  const auto cluster = [](sim::Backend& sv,
                          const std::vector<sim::QubitId>& q) {
    sv.h(q[0]);
    sv.cnot(q[0], q[1]);
    sv.h(q[1]);
    sv.flush_gates();
  };
  sim::ShardedStateVector sharded(4, 21);
  const auto q = sharded.allocate(kN);
  prepare(sharded, q);
  ASSERT_EQ(sharded.relabel_swaps(), 0u);
  const std::uint64_t clusters_before = sharded.cluster_sweeps();
  cluster(sharded, q);
  EXPECT_EQ(sharded.cluster_sweeps(), clusters_before + 1);
  EXPECT_EQ(sharded.relabel_swaps(), 2u);
  // The follow-up cluster on the same, now local, qubits swaps nothing.
  cluster(sharded, q);
  EXPECT_EQ(sharded.cluster_sweeps(), clusters_before + 2);
  EXPECT_EQ(sharded.relabel_swaps(), 2u);

  // Identical arithmetic to serial, as for every other path. Flush at the
  // same points so both backends make the same clustering decisions.
  sim::StateVector serial(21);
  const auto p = serial.allocate(kN);
  prepare(serial, p);
  cluster(serial, p);
  cluster(serial, p);
  expect_exact(serial.snapshot(), sharded.snapshot());
}

TEST(ClusterFusion, ClusterWiderThanTheSlicesGathers) {
  // With log2(shards) + 2 or + 3 qubits (at least four) a slice holds
  // fewer than four local bits, so a 4-qubit cluster cannot be swapped local: it gathers
  // its blocks across slices, without a relabel swap.
  const auto program = [](sim::Backend& sv,
                          const std::vector<sim::QubitId>& q) {
    for (std::size_t i = 0; i < q.size(); ++i) sv.rz(q[i], 0.2 + 0.1 * i);
    sv.flush_gates();
    sv.h(q[0]);
    sv.cnot(q[0], q[1]);
    sv.ry(q[1], 0.61);
    sv.cnot(q[1], q[2]);
    sv.rx(q[2], -0.35);
    sv.toffoli(q[0], q[2], q[3]);
    sv.y(q[3]);
    sv.cnot(q[3], q[0]);
    sv.flush_gates();
  };
  for (const unsigned shards : {2u, 4u, 8u}) {
    const auto gbits = static_cast<std::size_t>(std::countr_zero(shards));
    for (std::size_t nq = std::max<std::size_t>(4, gbits + 2);
         nq <= gbits + 3; ++nq) {
      sim::StateVector serial(8);
      sim::ShardedStateVector sharded(shards, 8);
      const auto qs = serial.allocate(nq);
      const auto qt = sharded.allocate(nq);
      program(serial, qs);
      program(sharded, qt);
      EXPECT_EQ(sharded.cluster_sweeps(), 1u)
          << "shards=" << shards << " nq=" << nq;
      EXPECT_EQ(sharded.relabel_swaps(), 0u)
          << "shards=" << shards << " nq=" << nq;
      expect_exact(serial.snapshot(), sharded.snapshot());
    }
  }
}

TEST(ClusterFusion, DeallocWithPendingClusterFlushesOnBothBackends) {
  // A pending 2-qubit cluster involving the released qubit must be applied
  // before the measurement/collapse/removal path runs — identically on
  // serial and sharded backends (same RNG draw, same final state).
  for (const unsigned shards : {1u, 2u, 4u, 8u}) {
    sim::StateVector serial(1312);
    sim::ShardedStateVector sharded(shards, 1312);
    const auto qs = serial.allocate(5);
    const auto qt = sharded.allocate(5);
    auto entangle = [](sim::Backend& sv, const std::vector<sim::QubitId>& q) {
      sv.h(q[1]);
      sv.cnot(q[1], q[3]);
      sv.ry(q[0], 0.83);
      // q1/q3 cluster and q0 cluster both pending at release time.
    };
    entangle(serial, qs);
    entangle(sharded, qt);
    EXPECT_GT(serial.pending_gates(), 0u);
    const bool ms = serial.release(qs[1]);
    const bool mt = sharded.release(qt[1]);
    EXPECT_EQ(ms, mt) << "shards=" << shards;
    expect_exact(serial.snapshot(), sharded.snapshot());
    EXPECT_EQ(serial.num_qubits(), sharded.num_qubits());
  }
}

TEST(ClusterFusion, DeallocSeesPendingClusterStateOnSharded) {
  // The |0>-check in deallocate() must observe the flushed cluster, not
  // the stale state — the sharded sibling of the serial fusion test.
  sim::ShardedStateVector sharded(4, 2);
  const auto q = sharded.allocate(5);
  sharded.h(q[2]);
  sharded.cnot(q[2], q[4]);  // pending cluster entangles q2 and q4
  EXPECT_THROW(sharded.deallocate(q[4]), sim::SimulatorError);
  // deallocate_classical must reject the superposed half as well.
  EXPECT_THROW(sharded.deallocate_classical(q[2]), sim::SimulatorError);
  // A qubit untouched by any pending gate still deallocates cleanly.
  EXPECT_NO_THROW(sharded.deallocate(q[0]));
  EXPECT_EQ(sharded.num_qubits(), 4u);
}

TEST(ClusterFusion, ReentrantPushIsNeverDeferredPastTheFlush) {
  // Regression for the old FusionQueue::drain() hole: entries pushed while
  // a drain batch was being applied landed in the fresh queue and were
  // silently deferred past the flush boundary. take() hands the batch out
  // and leaves the queue live, so the caller's until-empty loop picks up
  // anything pushed mid-flush.
  sim::FusionQueue queue;
  std::vector<sim::GateCluster> evicted;
  queue.push(sim::gate_h(), {}, 7, evicted);
  ASSERT_TRUE(evicted.empty());
  std::size_t applied = 0;
  while (!queue.empty()) {  // the Backend::flush_gates loop shape
    const auto batch = queue.take();
    EXPECT_TRUE(queue.empty());
    for (const sim::GateCluster& c : batch) {
      applied += c.num_ops();
      if (applied == 1) {
        // "Reentrant" push while the batch is being applied.
        queue.push(sim::gate_x(), {}, 9, evicted);
      }
    }
  }
  EXPECT_EQ(applied, 2u) << "the mid-flush push must also be applied";
  EXPECT_TRUE(queue.empty());
}

TEST(ClusterFusion, MeasurementBoundariesMatchAcrossBackendsUnderFusion) {
  // Mid-circuit measurements interleaved with cluster-building gates: the
  // shared RNG and identical flush decisions must keep every draw equal.
  for (const unsigned shards : {2u, 8u}) {
    sim::StateVector serial(333);
    sim::ShardedStateVector sharded(shards, 333);
    const auto qs = serial.allocate(7);
    const auto qt = sharded.allocate(7);
    const auto prog = random_program(99, 7, 60);
    run_program(serial, qs, prog);
    run_program(sharded, qt, prog);
    for (const std::size_t m : {0u, 3u, 6u}) {
      EXPECT_EQ(serial.measure(qs[m]), sharded.measure(qt[m]))
          << "shards=" << shards << " qubit=" << m;
    }
    const auto prog2 = random_program(100, 7, 40);
    run_program(serial, qs, prog2);
    run_program(sharded, qt, prog2);
    EXPECT_EQ(serial.measure_parity(qs), sharded.measure_parity(qt));
    expect_exact(serial.snapshot(), sharded.snapshot());
  }
}
