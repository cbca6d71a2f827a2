// A job whose backend cannot be built must fail in every process with a
// typed error that names the cause, and must never hang. In process the
// failure is local; under qmpirun only one process builds the serial or
// sharded backend, so its failure has to reach every other process. ctest
// runs this suite both ways (core_test_backend_failure and
// qmpirun_core_test_backend_failure).
#include <gtest/gtest.h>

#include <string>

#include "helpers.hpp"

using namespace qmpi;
namespace qt = qmpi::testing;

TEST(BackendFailure, UnbuildableShardCountFailsEveryProcess) {
  JobOptions opts = JobOptions::from_env();  // tcp coordinates under qmpirun
  opts.num_ranks = 2;
  opts.backend = sim::BackendKind::kSharded;
  opts.num_shards = 3;  // not a power of two: the sharded backend refuses it
  std::string what;
  try {
    run(opts, [](Context& ctx) {
      QubitArray q = ctx.alloc_qmem(1);
      ctx.h(q[0]);
      (void)ctx.measure(q[0]);
      ctx.barrier();
    });
    FAIL() << "a job on an unbuildable backend completed";
  } catch (const QmpiError& e) {
    what = e.what();
  } catch (const sim::SimulatorError& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("shard count"), std::string::npos) << what;
  EXPECT_NE(what.find("got 3"), std::string::npos) << what;
}

TEST(BackendFailure, NextJobInTheSameProcessesRunsNormally) {
  // The failed job above must not leave the processes out of step: a
  // following job on the default backend runs and entangles as usual.
  run(2, [](Context& ctx) {
    QubitArray q = ctx.alloc_qmem(1);
    const int peer = ctx.rank() == 0 ? 1 : 0;
    ctx.prepare_epr(q[0], peer, 0);
    if (ctx.rank() == 1) qt::send_handle(ctx, q[0], 0);
    if (ctx.rank() == 0) {
      const Qubit other = qt::recv_handle(ctx, 1);
      EXPECT_NEAR(qt::exp2(ctx, q[0], other, 'Z', 'Z'), 1.0, 1e-12);
    }
    ctx.barrier();
  });
}
