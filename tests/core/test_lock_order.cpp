// The runtime lock-order validator (core/lock_order.hpp): an A→B / B→A
// inversion must throw a typed LockOrderError naming BOTH lock sites
// before the acquire blocks — the bug surfaces as a test failure instead
// of a deadlock — while a consistent order records edges and never
// throws. The validator is the runtime half of the concurrency discipline
// in docs/ARCHITECTURE.md §10; clang's -Wthread-safety is the static
// half.
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "core/context.hpp"
#include "core/lock_order.hpp"
#include "core/sync.hpp"

namespace {

using qmpi::Mutex;
using qmpi::lockorder::LockOrderError;

/// Every test starts from an empty graph with the validator forced on and
/// leaves it disabled, so test order and build type (NDEBUG default)
/// cannot leak state between cases.
class LockOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    qmpi::lockorder::reset_for_test();
    qmpi::lockorder::set_enabled(true);
  }
  void TearDown() override {
    qmpi::lockorder::reset_for_test();
    qmpi::lockorder::set_enabled(false);
  }
};

TEST_F(LockOrderTest, ConsistentOrderRecordsEdgesWithoutThrowing) {
  Mutex a("lockorder_test::A");
  Mutex b("lockorder_test::B");
  for (int i = 0; i < 3; ++i) {
    a.lock();
    b.lock();
    b.unlock();
    a.unlock();
  }
  EXPECT_GE(qmpi::lockorder::edge_count(), 1u);
  EXPECT_EQ(qmpi::lockorder::violation_count(), 0u);
}

TEST_F(LockOrderTest, InversionThrowsNamingBothSites) {
  Mutex a("lockorder_test::A");
  Mutex b("lockorder_test::B");
  // Establish A→B as the sanctioned order.
  a.lock();
  b.lock();
  b.unlock();
  a.unlock();
  // B→A is the inversion; pre_acquire must throw before a.lock() blocks.
  b.lock();
  try {
    a.lock();
    b.unlock();
    FAIL() << "B->A after A->B did not throw LockOrderError";
  } catch (const LockOrderError& e) {
    EXPECT_STREQ(e.holding_site(), "lockorder_test::B");
    EXPECT_STREQ(e.acquiring_site(), "lockorder_test::A");
    const std::string what = e.what();
    EXPECT_NE(what.find("lockorder_test::A"), std::string::npos) << what;
    EXPECT_NE(what.find("lockorder_test::B"), std::string::npos) << what;
    b.unlock();
  }
  EXPECT_EQ(qmpi::lockorder::violation_count(), 1u);
}

TEST_F(LockOrderTest, InversionAcrossThreadsIsCaught) {
  // The orders never actually race (fully sequenced via join), which is
  // exactly the case ThreadSanitizer's happens-before analysis cannot
  // flag; the order graph is global so the validator still can.
  Mutex a("lockorder_test::A");
  Mutex b("lockorder_test::B");
  std::thread([&] {
    a.lock();
    b.lock();
    b.unlock();
    a.unlock();
  }).join();
  bool threw = false;
  std::thread([&] {
    b.lock();
    try {
      a.lock();
      a.unlock();
    } catch (const LockOrderError&) {
      threw = true;
    }
    b.unlock();
  }).join();
  EXPECT_TRUE(threw);
}

TEST_F(LockOrderTest, LongerCycleThroughIntermediateIsCaught) {
  Mutex a("lockorder_test::A");
  Mutex b("lockorder_test::B");
  Mutex c("lockorder_test::C");
  a.lock();
  b.lock();
  b.unlock();
  a.unlock();
  b.lock();
  c.lock();
  c.unlock();
  b.unlock();
  // C→A closes A→B→C→A even though A and C were never held together.
  c.lock();
  EXPECT_THROW(a.lock(), LockOrderError);
  c.unlock();
}

TEST_F(LockOrderTest, SelfRelockThrowsInsteadOfDeadlocking) {
  Mutex m("lockorder_test::M");
  m.lock();
  try {
    m.lock();
    FAIL() << "recursive lock of a non-recursive Mutex did not throw";
  } catch (const LockOrderError& e) {
    EXPECT_STREQ(e.acquiring_site(), "lockorder_test::M");
  }
  m.unlock();
}

TEST_F(LockOrderTest, ViolationIsReportedAgainOnRepeat) {
  // The cyclic edge is deliberately never inserted into the graph, so the
  // same bug keeps failing tests instead of being reported once and then
  // silently tolerated.
  Mutex a("lockorder_test::A");
  Mutex b("lockorder_test::B");
  a.lock();
  b.lock();
  b.unlock();
  a.unlock();
  for (int i = 0; i < 2; ++i) {
    b.lock();
    EXPECT_THROW(a.lock(), LockOrderError);
    b.unlock();
  }
  EXPECT_EQ(qmpi::lockorder::violation_count(), 2u);
}

TEST_F(LockOrderTest, TryLockRecordsNoEdges) {
  // try_lock cannot block, so it cannot deadlock and must not constrain
  // the order graph: the reverse blocking order afterwards stays legal.
  Mutex a("lockorder_test::A");
  Mutex b("lockorder_test::B");
  a.lock();
  ASSERT_TRUE(b.try_lock());
  b.unlock();
  a.unlock();
  EXPECT_EQ(qmpi::lockorder::edge_count(), 0u);
  b.lock();
  EXPECT_NO_THROW(a.lock());
  a.unlock();
  b.unlock();
}

TEST_F(LockOrderTest, InstancesOfOneDeclarationShareASite) {
  // Per-declaration (lockdep-style) classing: two mutexes constructed
  // with the same site name are the same node in the graph, so a
  // same-site nesting — the per-instance pattern that deadlocks the
  // moment two threads pick opposite instances — is flagged as a
  // self-cycle.
  Mutex first("lockorder_test::Session::mu");
  Mutex second("lockorder_test::Session::mu");
  first.lock();
  EXPECT_THROW(second.lock(), LockOrderError);
  first.unlock();
}

TEST_F(LockOrderTest, DisabledValidatorChecksNothing) {
  qmpi::lockorder::set_enabled(false);
  Mutex a("lockorder_test::A");
  Mutex b("lockorder_test::B");
  a.lock();
  b.lock();
  b.unlock();
  a.unlock();
  b.lock();
  EXPECT_NO_THROW(a.lock());
  a.unlock();
  b.unlock();
  EXPECT_EQ(qmpi::lockorder::edge_count(), 0u);
  EXPECT_EQ(qmpi::lockorder::violation_count(), 0u);
}

TEST_F(LockOrderTest, InProcessJobEntersBackendLocksWithoutViolations) {
  // Rank threads run their quantum ops themselves under SimServer::mutex,
  // so they reach the backend's locks directly: the compiled-cluster cache
  // and, past the parallel-sweep threshold (2^16 amplitudes), the thread
  // pool. Two ranks x 8 qubits with 2 lanes and a cache cover both edges
  // of the quantum-serialization row in docs/ARCHITECTURE.md §10.
  qmpi::JobOptions options;
  options.num_ranks = 2;
  options.sim_threads = 2;
  options.circuit_cache = 16;
  qmpi::run(options, [](qmpi::Context& ctx) {
    constexpr std::size_t kQubits = 8;
    qmpi::QubitArray q = ctx.alloc_qmem(kQubits);
    ctx.barrier();  // both registers exist: every sweep spans 2^16 amps
    for (int round = 0; round < 3; ++round) {
      for (std::size_t i = 0; i < kQubits; ++i) ctx.h(q[i]);
      for (std::size_t i = 0; i + 1 < kQubits; ++i) ctx.cnot(q[i], q[i + 1]);
      for (std::size_t i = 0; i < kQubits; ++i) ctx.rz(q[i], 0.1 * round);
      (void)ctx.measure(q[0]);
    }
    const qmpi::Qubit peer = ctx.alloc_qmem(1)[0];
    ctx.prepare_epr(peer, 1 - ctx.rank(), 0);
    (void)ctx.measure(peer);
    ctx.barrier();
  });
  EXPECT_GT(qmpi::lockorder::edge_count(), 0u);
  EXPECT_EQ(qmpi::lockorder::violation_count(), 0u);
}

}  // namespace
