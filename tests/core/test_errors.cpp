// Failure-injection tests: API misuse must fail loudly (and without
// deadlocking the job), mirroring the paper's emphasis that the prototype
// exists for "testing and debugging" distributed quantum algorithms.
#include <gtest/gtest.h>

#include "helpers.hpp"

using namespace qmpi;

TEST(QmpiErrors, FreeingEntangledQubitThrows) {
  EXPECT_THROW(run(2,
                   [](Context& ctx) {
                     QubitArray q = ctx.alloc_qmem(2);
                     ctx.h(q[0]);
                     ctx.cnot(q[0], q[1]);
                     ctx.free_qmem(q, 2);  // entangled: must be rejected
                   }),
               QmpiError);
}

TEST(QmpiErrors, FreeingSuperposedQubitThrows) {
  EXPECT_THROW(run(1,
                   [](Context& ctx) {
                     QubitArray q = ctx.alloc_qmem(1);
                     ctx.h(q[0]);
                     ctx.free_qmem(q, 1);
                   }),
               QmpiError);
}

TEST(QmpiErrors, FreeingMeasuredQubitSucceeds) {
  run(1, [](Context& ctx) {
    QubitArray q = ctx.alloc_qmem(1);
    ctx.h(q[0]);
    (void)ctx.measure(q[0]);
    ctx.free_qmem(q, 1);  // classical now: fine (paper §6 example does this)
  });
}

TEST(QmpiErrors, SendToInvalidRankThrows) {
  EXPECT_THROW(run(2,
                   [](Context& ctx) {
                     QubitArray q = ctx.alloc_qmem(1);
                     if (ctx.rank() == 0) ctx.send(q, 1, 7, 0);
                   }),
               std::exception);
}

TEST(QmpiErrors, EprWithOutOfRangePeerThrows) {
  EXPECT_THROW(run(2,
                   [](Context& ctx) {
                     QubitArray q = ctx.alloc_qmem(1);
                     ctx.prepare_epr(q[0], ctx.size() + 3, 0);
                   }),
               QmpiError);
}

TEST(QmpiErrors, UsingFreedQubitThrows) {
  EXPECT_THROW(run(1,
                   [](Context& ctx) {
                     QubitArray q = ctx.alloc_qmem(1);
                     ctx.free_qmem(q, 1);
                     ctx.x(q[0]);
                   }),
               sim::SimulatorError);
}

TEST(QmpiErrors, PersistentHandleSizeMismatchThrows) {
  EXPECT_THROW(
      run(2,
          [](Context& ctx) {
            if (ctx.rank() == 0) {
              PersistentHandle h = ctx.persistent_init(2, 1, 0);
              QubitArray data = ctx.alloc_qmem(3);
              ctx.start_send(h, data, 3);  // size mismatch
            } else {
              PersistentHandle h = ctx.persistent_init(2, 0, 0);
              std::vector<Qubit> out(3);
              ctx.start_recv(h, out.data(), 3);
            }
          }),
      QmpiError);
}

TEST(QmpiErrors, ReusedPersistentHandleThrows) {
  EXPECT_THROW(
      run(2,
          [](Context& ctx) {
            PersistentHandle h =
                ctx.persistent_init(1, 1 - ctx.rank(), 0);
            QubitArray data = ctx.alloc_qmem(1);
            std::vector<Qubit> out(1);
            if (ctx.rank() == 0) {
              ctx.start_send(h, data, 1);
              ctx.start_send(h, data, 1);  // handle already consumed
            } else {
              ctx.start_recv(h, out.data(), 1);
              ctx.start_recv(h, out.data(), 1);
            }
          }),
      QmpiError);
}

TEST(QmpiErrors, RankFailureDoesNotDeadlockTheJob) {
  // One rank throws while the peer is blocked in a quantum receive: the
  // runtime must propagate instead of hanging.
  EXPECT_THROW(run(2,
                   [](Context& ctx) {
                     QubitArray q = ctx.alloc_qmem(1);
                     if (ctx.rank() == 0) {
                       ctx.recv(q, 1, 1, 0);  // peer never sends
                     } else {
                       throw std::logic_error("rank 1 gave up");
                     }
                   }),
               std::logic_error);
}

TEST(QmpiErrors, CompatApiOutsideJobThrows) {
  EXPECT_THROW((void)qmpi::compat::QMPI_Alloc_qmem(1), QmpiError);
}

TEST(QmpiErrors, ExceptionsCarryUsefulMessages) {
  try {
    run(1, [](Context& ctx) {
      QubitArray q = ctx.alloc_qmem(1);
      ctx.h(q[0]);
      ctx.free_qmem(q, 1);
    });
    FAIL() << "expected QmpiError";
  } catch (const QmpiError& e) {
    EXPECT_NE(std::string(e.what()).find("free_qmem"), std::string::npos);
  }
}

TEST(QmpiErrors, RunRejectsNonPositiveRankCounts) {
  // The rank count is validated before any transport is opened, so the
  // in-process and service paths fail alike (no service is listening here).
  for (const TransportKind transport :
       {TransportKind::kInproc, TransportKind::kService}) {
    for (const int num_ranks : {0, -1}) {
      JobOptions options;
      options.transport = transport;
      options.num_ranks = num_ranks;
      try {
        run(options, [](Context&) {});
        FAIL() << "expected QmpiError for num_ranks=" << num_ranks;
      } catch (const QmpiError& e) {
        EXPECT_STREQ(e.what(), "run: num_ranks must be >= 1");
      }
    }
  }
}
