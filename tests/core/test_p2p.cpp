// Tests for copy-semantics point-to-point: Send/Recv create entangled
// copies (Fig. 3a), Unsend/Unrecv uncompute them with classical
// communication only (Fig. 3b), and resources match Table 1.
#include <gtest/gtest.h>

#include <cmath>

#include "helpers.hpp"

using namespace qmpi;
namespace qt = qmpi::testing;

namespace {
constexpr double kTheta = 1.234;  // sender state Ry(theta)|0>
}

TEST(QmpiP2PCopy, SendCreatesEntangledCopy) {
  run(2, [](Context& ctx) {
    QubitArray q = ctx.alloc_qmem(1);
    if (ctx.rank() == 0) {
      ctx.ry(q[0], kTheta);
      ctx.send(q, 1, 1, 7);
      const Qubit copy = qt::recv_handle(ctx, 1);
      // Perfect Z correlation; X coherence of the fanout state
      // cos(t/2)|00> + sin(t/2)|11>.
      EXPECT_NEAR(qt::exp2(ctx, q[0], copy, 'Z', 'Z'), 1.0, 1e-12);
      EXPECT_NEAR(qt::exp2(ctx, q[0], copy, 'X', 'X'), std::sin(kTheta),
                  1e-12);
      EXPECT_NEAR(qt::exp1(ctx, q[0], 'Z'), std::cos(kTheta), 1e-12);
      EXPECT_NEAR(qt::exp1(ctx, copy, 'Z'), std::cos(kTheta), 1e-12);
    } else {
      ctx.recv(q, 1, 0, 7);
      qt::send_handle(ctx, q[0], 0);
    }
    ctx.barrier();
  });
}

TEST(QmpiP2PCopy, UnsendUnrecvRestoresSenderStateAndFreesCopy) {
  run(2, [](Context& ctx) {
    QubitArray q = ctx.alloc_qmem(1);
    if (ctx.rank() == 0) {
      ctx.ry(q[0], kTheta);
      ctx.send(q, 1, 1, 7);
      ctx.unsend(q, 1, 1, 7);
      // Sender's qubit is back to the exact pre-send state.
      EXPECT_NEAR(qt::exp1(ctx, q[0], 'Z'), std::cos(kTheta), 1e-12);
      EXPECT_NEAR(qt::exp1(ctx, q[0], 'X'), std::sin(kTheta), 1e-12);
    } else {
      ctx.recv(q, 1, 0, 7);
      ctx.unrecv(q, 1, 0, 7);
      // The copy is uncomputed to |0> and can be freed.
      EXPECT_NEAR(ctx.probability_one(q[0]), 0.0, 1e-12);
      ctx.free_qmem(q, 1);
    }
    ctx.barrier();
  });
}

TEST(QmpiP2PCopy, CopySurvivesReceiverSideUseBeforeUncompute) {
  // The receiver applies a controlled rotation off its copy; after the
  // uncopy, the effect must persist on the target while the copy vanishes —
  // the TFIM boundary-term pattern from Listing 1.
  run(2, [](Context& ctx) {
    if (ctx.rank() == 0) {
      QubitArray q = ctx.alloc_qmem(1);
      ctx.h(q[0]);  // superposition control
      ctx.send(q, 1, 1, 3);
      ctx.unsend(q, 1, 1, 3);
      const Qubit target = qt::recv_handle(ctx, 1);
      // Entangled: control |+> rotated target by CNOT: Bell-like state.
      EXPECT_NEAR(qt::exp2(ctx, q[0], target, 'Z', 'Z'), 1.0, 1e-12);
    } else {
      QubitArray tmp = ctx.alloc_qmem(1);
      QubitArray target = ctx.alloc_qmem(1);
      ctx.recv(tmp, 1, 0, 3);
      ctx.cnot(tmp[0], target[0]);  // use the copy
      ctx.unrecv(tmp, 1, 0, 3);
      ctx.free_qmem(tmp, 1);
      qt::send_handle(ctx, target[0], 0);
    }
    ctx.barrier();
  });
}

TEST(QmpiP2PCopy, MultiQubitMessage) {
  run(2, [](Context& ctx) {
    constexpr std::size_t kCount = 3;
    QubitArray q = ctx.alloc_qmem(kCount);
    if (ctx.rank() == 0) {
      for (std::size_t i = 0; i < kCount; ++i)
        ctx.ry(q[i], 0.3 * static_cast<double>(i + 1));
      ctx.send(q, kCount, 1, 0);
      for (std::size_t i = 0; i < kCount; ++i) {
        const Qubit copy = qt::recv_handle(ctx, 1);
        EXPECT_NEAR(qt::exp2(ctx, q[i], copy, 'Z', 'Z'), 1.0, 1e-12)
            << "qubit " << i;
      }
    } else {
      ctx.recv(q, kCount, 0, 0);
      for (std::size_t i = 0; i < kCount; ++i) qt::send_handle(ctx, q[i], 0);
    }
    ctx.barrier();
  });
}

TEST(QmpiP2PCopy, SimultaneousBidirectionalExchangeDoesNotCrossWire) {
  // Both ranks send with the same tag at the same time; the direction
  // sub-channels must keep the two messages' EPR pairs separate.
  run(2, [](Context& ctx) {
    QubitArray mine = ctx.alloc_qmem(1);
    QubitArray theirs = ctx.alloc_qmem(1);
    const double angle = ctx.rank() == 0 ? 0.6 : 2.2;
    ctx.ry(mine[0], angle);
    const int peer = 1 - ctx.rank();
    ctx.sendrecv(mine, 1, peer, 5, theirs, 1, peer, 5);
    // theirs must be a copy of the peer's state.
    const double peer_angle = ctx.rank() == 0 ? 2.2 : 0.6;
    EXPECT_NEAR(qt::exp1(ctx, theirs[0], 'Z'), std::cos(peer_angle), 1e-12);
    ctx.barrier();
    ctx.unsendrecv(mine, 1, peer, 5, theirs, 1, peer, 5);
    EXPECT_NEAR(qt::exp1(ctx, mine[0], 'Z'), std::cos(angle), 1e-12);
    EXPECT_NEAR(ctx.probability_one(theirs[0]), 0.0, 1e-12);
    ctx.barrier();
  });
}

TEST(QmpiP2PCopy, MultiQubitSendrecvCarriesEveryQubitBothWays) {
  // The higher rank posts the ids of all its EPR halves before its first
  // fix-up bit on one channel; the lower rank must pair every qubit of
  // the message before it reads a fix-up, or it would read an id as one.
  constexpr std::size_t kCount = 3;
  run(2, [](Context& ctx) {
    QubitArray mine = ctx.alloc_qmem(kCount);
    QubitArray theirs = ctx.alloc_qmem(kCount);
    auto angle = [](int rank, std::size_t i) {
      return 0.4 + 0.7 * rank + 0.3 * static_cast<double>(i);
    };
    for (std::size_t i = 0; i < kCount; ++i) {
      ctx.ry(mine[i], angle(ctx.rank(), i));
    }
    const int peer = 1 - ctx.rank();
    ctx.sendrecv(mine, kCount, peer, 5, theirs, kCount, peer, 5);
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_NEAR(qt::exp1(ctx, theirs[i], 'Z'), std::cos(angle(peer, i)),
                  1e-12)
          << "rank " << ctx.rank() << " qubit " << i;
    }
    ctx.barrier();
    ctx.unsendrecv(mine, kCount, peer, 5, theirs, kCount, peer, 5);
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_NEAR(qt::exp1(ctx, mine[i], 'Z'), std::cos(angle(ctx.rank(), i)),
                  1e-12);
      EXPECT_NEAR(ctx.probability_one(theirs[i]), 0.0, 1e-12);
    }
    ctx.barrier();
  });
}

TEST(QmpiP2PCopy, ResourcesMatchTable1PerQubit) {
  // Table 1: copy = 1 EPR + 1 bit; uncopy = 0 EPR + 1 bit (per qubit).
  for (const std::size_t count : {1ul, 2ul, 5ul}) {
    const JobReport report = run(2, [count](Context& ctx) {
      QubitArray q = ctx.alloc_qmem(count);
      if (ctx.rank() == 0) {
        for (std::size_t i = 0; i < count; ++i) ctx.ry(q[i], 0.5);
        ctx.send(q, count, 1, 0);
        ctx.unsend(q, count, 1, 0);
      } else {
        ctx.recv(q, count, 0, 0);
        ctx.unrecv(q, count, 0, 0);
        ctx.free_qmem(q, count);
      }
    });
    EXPECT_EQ(report[OpCategory::kCopy].epr_pairs, count);
    EXPECT_EQ(report[OpCategory::kCopy].classical_bits, count);
    EXPECT_EQ(report[OpCategory::kUncopy].epr_pairs, 0u);
    EXPECT_EQ(report[OpCategory::kUncopy].classical_bits, count);
  }
}

TEST(QmpiP2PCopy, NonblockingIsendIrecvCompleteAtWait) {
  run(2, [](Context& ctx) {
    QubitArray q = ctx.alloc_qmem(1);
    if (ctx.rank() == 0) {
      ctx.ry(q[0], kTheta);
      QRequest req = ctx.isend(q, 1, 1, 4);
      req.wait();
      const Qubit copy = qt::recv_handle(ctx, 1);
      EXPECT_NEAR(qt::exp2(ctx, q[0], copy, 'Z', 'Z'), 1.0, 1e-12);
    } else {
      QRequest req = ctx.irecv(q, 1, 0, 4);
      req.wait();
      qt::send_handle(ctx, q[0], 0);
    }
    ctx.barrier();
  });
}

TEST(QmpiP2PCopy, CancelledRequestNeverRunsButCompletes) {
  const JobReport report = run(2, [](Context& ctx) {
    QubitArray q = ctx.alloc_qmem(1);
    if (ctx.rank() == 0) {
      QRequest req = ctx.isend(q, 1, 1, 4);
      EXPECT_TRUE(req.cancel());
      req.wait();  // no-op: the protocol must not run
      // Cancellation is terminal completion (MPI_Cancel + MPI_Wait): a
      // wait-then-poll loop over this handle must terminate, not spin.
      EXPECT_TRUE(req.is_complete());
      EXPECT_TRUE(req.is_cancelled());
    } else {
      QRequest req = ctx.irecv(q, 1, 0, 4);
      EXPECT_TRUE(req.cancel());
      req.wait();
      EXPECT_TRUE(req.is_complete());
    }
  });
  // The protocols never ran: no EPR pair was consumed anywhere.
  EXPECT_EQ(report.total().epr_pairs, 0u);
}

TEST(QmpiP2PCopy, PersistentRequestsSendWithZeroQuantumCommAtStart) {
  // Paper §4.7: after persistent_init, the transfer itself uses only
  // classical communication.
  const JobReport report = run(2, [](Context& ctx) {
    constexpr std::size_t kCount = 2;
    if (ctx.rank() == 0) {
      PersistentHandle h = ctx.persistent_init(kCount, 1, 11);
      const auto before =
          ctx.tracker()[OpCategory::kCopy].epr_pairs;
      QubitArray data = ctx.alloc_qmem(kCount);
      ctx.ry(data[0], 0.4);
      ctx.ry(data[1], 1.9);
      ctx.start_send(h, data, kCount);
      const auto after = ctx.tracker()[OpCategory::kCopy].epr_pairs;
      EXPECT_EQ(before, after) << "start_send must not create EPR pairs";
      const Qubit c0 = qt::recv_handle(ctx, 1);
      const Qubit c1 = qt::recv_handle(ctx, 1);
      EXPECT_NEAR(qt::exp2(ctx, data[0], c0, 'Z', 'Z'), 1.0, 1e-12);
      EXPECT_NEAR(qt::exp2(ctx, data[1], c1, 'Z', 'Z'), 1.0, 1e-12);
    } else {
      PersistentHandle h = ctx.persistent_init(kCount, 0, 11);
      std::vector<Qubit> out(kCount);
      ctx.start_recv(h, out.data(), kCount);
      qt::send_handle(ctx, out[0], 0);
      qt::send_handle(ctx, out[1], 0);
    }
    ctx.barrier();
  });
  EXPECT_EQ(report[OpCategory::kCopy].epr_pairs, 2u);
}
