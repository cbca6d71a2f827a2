// State-level tests for reversible reductions and scans (§4.5-§4.6): the
// chain schedule computes parities in superposition, the handles uncompute
// exactly, and the resources follow Table 1.
#include <gtest/gtest.h>

#include <cmath>

#include "core/protocol_tags.hpp"
#include "helpers.hpp"

using namespace qmpi;
namespace qt = qmpi::testing;

class ReduceSizes : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(N, ReduceSizes, ::testing::Values(2, 3, 4, 5));

TEST_P(ReduceSizes, ParityReduceOnClassicalInputs) {
  const int n = GetParam();
  // Inputs x_r = (r % 2); parity = n/2 odd ones.
  const bool expected_parity = ((n / 2) % 2) != 0;
  run(n, [&](Context& ctx) {
    QubitArray q = ctx.alloc_qmem(1);
    if (ctx.rank() % 2 == 1) ctx.x(q[0]);
    ReductionHandle h = ctx.reduce(q, 1, parity_op(), /*root=*/0);
    if (ctx.rank() == 0) {
      EXPECT_NEAR(ctx.probability_one(h.acc[0]), expected_parity ? 1.0 : 0.0,
                  1e-9);
    }
    ctx.barrier();
    ctx.unreduce(h, q);
    // Inputs intact.
    EXPECT_NEAR(ctx.probability_one(q[0]), ctx.rank() % 2 ? 1.0 : 0.0, 1e-9);
    ctx.barrier();
  });
}

TEST_P(ReduceSizes, ParityReduceActsCoherentlyOnSuperpositions) {
  const int n = GetParam();
  // Rank 0 holds |+>; all others |0>. After the reduction, root's acc is
  // entangled with rank 0's qubit: perfect ZZ correlation, and unreduce
  // restores the |+> exactly (<X> = 1).
  run(n, [&](Context& ctx) {
    QubitArray q = ctx.alloc_qmem(1);
    if (ctx.rank() == 0) ctx.h(q[0]);
    ReductionHandle h = ctx.reduce(q, 1, parity_op(), /*root=*/0);
    if (ctx.rank() == 0) {
      EXPECT_NEAR(qt::exp2(ctx, q[0], h.acc[0], 'Z', 'Z'), 1.0, 1e-9);
      EXPECT_NEAR(qt::exp1(ctx, q[0], 'X'), 0.0, 1e-9);  // entangled now
    }
    ctx.barrier();
    ctx.unreduce(h, q);
    if (ctx.rank() == 0) {
      EXPECT_NEAR(qt::exp1(ctx, q[0], 'X'), 1.0, 1e-9);
    }
    ctx.barrier();
  });
}

TEST_P(ReduceSizes, ReduceResourcesFollowTable1) {
  const int n = GetParam();
  const JobReport r = run(n, [](Context& ctx) {
    QubitArray q = ctx.alloc_qmem(1);
    if (ctx.rank() % 2 == 1) ctx.x(q[0]);
    ReductionHandle h = ctx.reduce(q, 1, parity_op(), 0);
    ctx.unreduce(h, q);
  });
  EXPECT_EQ(r[OpCategory::kReduce].epr_pairs,
            static_cast<std::uint64_t>(n - 1));
  EXPECT_EQ(r[OpCategory::kReduce].classical_bits,
            static_cast<std::uint64_t>(n - 1));
  EXPECT_EQ(r[OpCategory::kUnreduce].epr_pairs, 0u);
  EXPECT_EQ(r[OpCategory::kUnreduce].classical_bits,
            static_cast<std::uint64_t>(n - 1));
}

TEST_P(ReduceSizes, NonZeroRootReceivesTheResult) {
  const int n = GetParam();
  const int root = n - 1;
  run(n, [&](Context& ctx) {
    QubitArray q = ctx.alloc_qmem(1);
    ctx.x(q[0]);  // every rank contributes 1: parity = n mod 2
    ReductionHandle h = ctx.reduce(q, 1, parity_op(), root);
    if (ctx.rank() == root) {
      EXPECT_NEAR(ctx.probability_one(h.acc[0]), (n % 2) ? 1.0 : 0.0, 1e-9);
    }
    ctx.barrier();
    ctx.unreduce(h, q);
    ctx.barrier();
  });
}

TEST_P(ReduceSizes, AllreduceExposesResultEverywhereAndUncomputes) {
  const int n = GetParam();
  const bool expected_parity = ((n / 2) % 2) != 0;
  run(n, [&](Context& ctx) {
    QubitArray q = ctx.alloc_qmem(1);
    if (ctx.rank() % 2 == 1) ctx.x(q[0]);
    ReductionHandle h = ctx.allreduce(q, 1, parity_op());
    EXPECT_NEAR(ctx.probability_one(h.acc[0]), expected_parity ? 1.0 : 0.0,
                1e-9)
        << "rank " << ctx.rank();
    ctx.barrier();
    ctx.unallreduce(h, q);
    EXPECT_NEAR(ctx.probability_one(q[0]), ctx.rank() % 2 ? 1.0 : 0.0, 1e-9);
    ctx.barrier();
  });
}

TEST_P(ReduceSizes, InclusiveScanComputesPrefixParities) {
  const int n = GetParam();
  run(n, [&](Context& ctx) {
    QubitArray q = ctx.alloc_qmem(1);
    if (ctx.rank() % 2 == 1) ctx.x(q[0]);
    ReductionHandle h = ctx.scan(q, 1, parity_op());
    // Prefix parity of 0,1,0,1,... up to rank r = number of odd ranks <= r.
    const int ones = (ctx.rank() + 1) / 2;
    EXPECT_NEAR(ctx.probability_one(h.acc[0]), (ones % 2) ? 1.0 : 0.0, 1e-9)
        << "rank " << ctx.rank();
    ctx.barrier();
    ctx.unscan(h, q);
    EXPECT_NEAR(ctx.probability_one(q[0]), ctx.rank() % 2 ? 1.0 : 0.0, 1e-9);
    ctx.barrier();
  });
}

TEST_P(ReduceSizes, ExclusiveScanShiftsByOneRank) {
  const int n = GetParam();
  run(n, [&](Context& ctx) {
    QubitArray q = ctx.alloc_qmem(1);
    if (ctx.rank() % 2 == 1) ctx.x(q[0]);
    ReductionHandle h = ctx.exscan(q, 1, parity_op());
    const int ones = ctx.rank() / 2;  // odd ranks strictly below r
    EXPECT_NEAR(ctx.probability_one(h.acc[0]), (ones % 2) ? 1.0 : 0.0, 1e-9)
        << "rank " << ctx.rank();
    ctx.barrier();
    ctx.unexscan(h, q);
    EXPECT_NEAR(ctx.probability_one(q[0]), ctx.rank() % 2 ? 1.0 : 0.0, 1e-9);
    ctx.barrier();
  });
}

TEST(QmpiReduce, MultiQubitBxorRegisters) {
  // Element-wise XOR over 2-qubit registers on 3 ranks.
  run(3, [](Context& ctx) {
    QubitArray q = ctx.alloc_qmem(2);
    // rank r contributes bits (r & 1, r >> 1).
    if (ctx.rank() & 1) ctx.x(q[0]);
    if (ctx.rank() >> 1) ctx.x(q[1]);
    ReductionHandle h = ctx.reduce(q, 2, bxor_op(), 0);
    if (ctx.rank() == 0) {
      // XOR over ranks 0,1,2: bit0 = 0^1^0 = 1, bit1 = 0^0^1 = 1.
      EXPECT_NEAR(ctx.probability_one(h.acc[0]), 1.0, 1e-9);
      EXPECT_NEAR(ctx.probability_one(h.acc[1]), 1.0, 1e-9);
    }
    ctx.barrier();
    ctx.unreduce(h, q);
    ctx.barrier();
  });
}

TEST(QmpiReduce, UserDefinedReversibleOp) {
  // A custom reversible fold: acc ^= NOT(data) (X data, CNOT, X data).
  const ReduceOp not_parity(
      "NOT_PARITY",
      [](Context& c, std::span<const Qubit> data, std::span<Qubit> acc) {
        for (std::size_t i = 0; i < acc.size(); ++i) {
          c.x(data[i]);
          c.cnot(data[i], acc[i]);
          c.x(data[i]);
        }
      },
      [](Context& c, std::span<const Qubit> data, std::span<Qubit> acc) {
        for (std::size_t i = 0; i < acc.size(); ++i) {
          c.x(data[i]);
          c.cnot(data[i], acc[i]);
          c.x(data[i]);
        }
      });
  run(3, [&](Context& ctx) {
    QubitArray q = ctx.alloc_qmem(1);
    // All inputs 0 -> each fold adds NOT(0) = 1; three ranks -> parity 1.
    ReductionHandle h = ctx.reduce(q, 1, not_parity, 0);
    if (ctx.rank() == 0) {
      EXPECT_NEAR(ctx.probability_one(h.acc[0]), 1.0, 1e-9);
    }
    ctx.barrier();
    ctx.unreduce(h, q);
    EXPECT_NEAR(ctx.probability_one(q[0]), 0.0, 1e-9);
    ctx.barrier();
  });
}

TEST(QmpiReduce, ReduceScatterBlockDeliversBlockParities) {
  constexpr int kRanks = 3;
  run(kRanks, [](Context& ctx) {
    QubitArray q = ctx.alloc_qmem(kRanks);
    // Rank r sets block b iff (r + b) even.
    for (int b = 0; b < kRanks; ++b) {
      if ((ctx.rank() + b) % 2 == 0) ctx.x(q[b]);
    }
    auto handles = ctx.reduce_scatter_block(q, 1);
    // Block b parity over ranks: number of r with (r+b) even.
    int ones = 0;
    for (int r = 0; r < kRanks; ++r) {
      if ((r + ctx.rank()) % 2 == 0) ++ones;
    }
    EXPECT_NEAR(
        ctx.probability_one(handles[static_cast<std::size_t>(ctx.rank())]
                                .acc[0]),
        (ones % 2) ? 1.0 : 0.0, 1e-9)
        << "rank " << ctx.rank();
    ctx.barrier();
    ctx.unreduce_scatter_block(handles, q);
    ctx.barrier();
  });
}

TEST(QmpiReduce, ExscanRejectsTagsOutsideTheReductionBand) {
  // Like reduce and scan: a tag outside [0, kMaxReduceTag] would put the
  // exscan chain's traffic in another tag band (-2^17 lands in the user
  // band), so it must be refused up front.
  for (const int tag : {-(1 << 17), detail::kMaxReduceTag + 1}) {
    EXPECT_THROW(run(2,
                     [tag](Context& ctx) {
                       QubitArray q = ctx.alloc_qmem(1);
                       ReductionHandle h =
                           ctx.exscan(q, 1, parity_op(), tag);
                       ctx.unexscan(h, q);
                     }),
                 QmpiError)
        << "tag " << tag;
  }
}

TEST(QmpiReduce, MisusedHandleThrows) {
  EXPECT_THROW(run(2,
                   [](Context& ctx) {
                     QubitArray q = ctx.alloc_qmem(1);
                     ReductionHandle h = ctx.scan(q, 1, parity_op());
                     ctx.unreduce(h, q);  // wrong inverse for a scan handle
                   }),
               QmpiError);
}

TEST(QmpiReduce, DoubleUncomputeThrows) {
  EXPECT_THROW(run(2,
                   [](Context& ctx) {
                     QubitArray q = ctx.alloc_qmem(1);
                     ReductionHandle h = ctx.reduce(q, 1, parity_op(), 0);
                     ctx.unreduce(h, q);
                     ctx.unreduce(h, q);
                   }),
               QmpiError);
}
