// Tests for classical collectives against reference results, across a range
// of communicator sizes (including non-powers of two) and roots.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "classical/comm.hpp"
#include "classical/runtime.hpp"

namespace cl = qmpi::classical;

class CollectiveSizes : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13));

TEST_P(CollectiveSizes, BarrierCompletesOnAllRanks) {
  const int n = GetParam();
  std::atomic<int> count{0};
  cl::Runtime::run(n, [&](cl::Comm& comm) {
    comm.barrier();
    count.fetch_add(1);
    comm.barrier();
    EXPECT_EQ(count.load(), n);
  });
}

TEST_P(CollectiveSizes, BcastFromEveryRoot) {
  const int n = GetParam();
  cl::Runtime::run(n, [&](cl::Comm& comm) {
    for (int root = 0; root < n; ++root) {
      const int payload = comm.rank() == root ? 1000 + root : -1;
      EXPECT_EQ(comm.bcast(payload, root), 1000 + root);
    }
  });
}

TEST_P(CollectiveSizes, BcastBufferInPlace) {
  const int n = GetParam();
  cl::Runtime::run(n, [&](cl::Comm& comm) {
    for (int root = 0; root < n; ++root) {
      for (const std::size_t len : {0U, 1U, 5U}) {
        std::vector<int> buffer(len, -1);
        if (comm.rank() == root) {
          for (std::size_t i = 0; i < len; ++i) {
            buffer[i] = 100 * root + static_cast<int>(i);
          }
        }
        comm.bcast(std::span<int>(buffer), root);
        for (std::size_t i = 0; i < len; ++i) {
          EXPECT_EQ(buffer[i], 100 * root + static_cast<int>(i))
              << "root " << root << " len " << len << " index " << i;
        }
      }
    }
  });
}

TEST_P(CollectiveSizes, GatherCollectsInRankOrder) {
  const int n = GetParam();
  cl::Runtime::run(n, [&](cl::Comm& comm) {
    for (int root = 0; root < std::min(n, 3); ++root) {
      const auto all = comm.gather(comm.rank() * comm.rank(), root);
      if (comm.rank() == root) {
        ASSERT_EQ(static_cast<int>(all.size()), n);
        for (int r = 0; r < n; ++r)
          EXPECT_EQ(all[static_cast<std::size_t>(r)], r * r);
      } else {
        EXPECT_TRUE(all.empty());
      }
    }
  });
}

TEST_P(CollectiveSizes, GathervVariableLengths) {
  const int n = GetParam();
  cl::Runtime::run(n, [&](cl::Comm& comm) {
    std::vector<int> mine(static_cast<std::size_t>(comm.rank() + 1),
                          comm.rank());
    const auto all = comm.gatherv(std::span<const int>(mine), 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(static_cast<int>(all.size()), n);
      for (int r = 0; r < n; ++r) {
        EXPECT_EQ(static_cast<int>(all[static_cast<std::size_t>(r)].size()),
                  r + 1);
        for (const int v : all[static_cast<std::size_t>(r)]) EXPECT_EQ(v, r);
      }
    }
  });
}

TEST_P(CollectiveSizes, ScatterDistributesRootBuffer) {
  const int n = GetParam();
  cl::Runtime::run(n, [&](cl::Comm& comm) {
    std::vector<int> values;
    if (comm.rank() == 0) {
      values.resize(static_cast<std::size_t>(n));
      std::iota(values.begin(), values.end(), 100);
    }
    const int mine = comm.scatter(std::span<const int>(values), 0);
    EXPECT_EQ(mine, 100 + comm.rank());
  });
}

TEST_P(CollectiveSizes, AllgatherGivesEveryRankEverything) {
  const int n = GetParam();
  cl::Runtime::run(n, [&](cl::Comm& comm) {
    const auto all = comm.allgather(3 * comm.rank() + 1);
    ASSERT_EQ(static_cast<int>(all.size()), n);
    for (int r = 0; r < n; ++r)
      EXPECT_EQ(all[static_cast<std::size_t>(r)], 3 * r + 1);
  });
}

TEST_P(CollectiveSizes, AlltoallPersonalizedExchange) {
  const int n = GetParam();
  cl::Runtime::run(n, [&](cl::Comm& comm) {
    std::vector<int> out(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j)
      out[static_cast<std::size_t>(j)] = comm.rank() * 100 + j;
    const auto in = comm.alltoall(std::span<const int>(out));
    ASSERT_EQ(static_cast<int>(in.size()), n);
    for (int j = 0; j < n; ++j)
      EXPECT_EQ(in[static_cast<std::size_t>(j)], j * 100 + comm.rank());
  });
}

TEST_P(CollectiveSizes, ReduceSumAtEveryRoot) {
  const int n = GetParam();
  const int expected = n * (n - 1) / 2;
  cl::Runtime::run(n, [&](cl::Comm& comm) {
    for (int root = 0; root < n; ++root) {
      const int sum =
          comm.reduce(comm.rank(), [](int a, int b) { return a + b; }, root);
      if (comm.rank() == root) EXPECT_EQ(sum, expected);
    }
  });
}

TEST_P(CollectiveSizes, AllreduceXorMatchesReference) {
  const int n = GetParam();
  int expected = 0;
  for (int r = 0; r < n; ++r) expected ^= (r * 7 + 3);
  cl::Runtime::run(n, [&](cl::Comm& comm) {
    const int got = comm.allreduce(comm.rank() * 7 + 3,
                                   [](int a, int b) { return a ^ b; });
    EXPECT_EQ(got, expected);
  });
}

namespace {

/// 2x2 integer matrix: associative under multiplication but NOT
/// commutative, so any reduction schedule that folds operands out of rank
/// order produces a different matrix. Pins down the remainder handling of
/// the recursive-doubling allreduce on non-power-of-two worlds.
struct M2 {
  long long a, b, c, d;
  bool operator==(const M2&) const = default;
};

M2 m2_mul(const M2& x, const M2& y) {
  return M2{x.a * y.a + x.b * y.c, x.a * y.b + x.b * y.d,
            x.c * y.a + x.d * y.c, x.c * y.b + x.d * y.d};
}

M2 m2_rank(int r) { return M2{1, r + 1, 1, 0}; }

}  // namespace

TEST_P(CollectiveSizes, AllreduceFoldsInStrictRankOrder) {
  const int n = GetParam();
  M2 expected = m2_rank(0);
  for (int r = 1; r < n; ++r) expected = m2_mul(expected, m2_rank(r));
  cl::Runtime::run(n, [&](cl::Comm& comm) {
    const M2 got = comm.allreduce(m2_rank(comm.rank()), m2_mul);
    EXPECT_EQ(got, expected) << "world size " << n;
  });
}

TEST_P(CollectiveSizes, InclusiveScanPrefixSums) {
  const int n = GetParam();
  cl::Runtime::run(n, [&](cl::Comm& comm) {
    const int got =
        comm.scan(comm.rank() + 1, [](int a, int b) { return a + b; });
    const int r = comm.rank();
    EXPECT_EQ(got, (r + 1) * (r + 2) / 2);
  });
}

TEST_P(CollectiveSizes, ExclusiveScanShiftsByOneRank) {
  const int n = GetParam();
  cl::Runtime::run(n, [&](cl::Comm& comm) {
    const int got = comm.exscan(
        comm.rank() + 1, [](int a, int b) { return a + b; }, 0);
    const int r = comm.rank();
    EXPECT_EQ(got, r * (r + 1) / 2);
  });
}

TEST(ClassicalCollectives, ExscanXorIsTheCatStateFixupPattern) {
  // The exact usage from paper §7.1: prefix-XOR of parity outcomes.
  constexpr int kRanks = 6;
  const std::vector<std::uint8_t> outcomes{1, 0, 1, 1, 0, 1};
  cl::Runtime::run(kRanks, [&](cl::Comm& comm) {
    const auto mine = outcomes[static_cast<std::size_t>(comm.rank())];
    const auto prefix = comm.exscan(
        mine,
        [](std::uint8_t a, std::uint8_t b) -> std::uint8_t { return a ^ b; },
        std::uint8_t{0});
    std::uint8_t expected = 0;
    for (int i = 0; i < comm.rank(); ++i)
      expected ^= outcomes[static_cast<std::size_t>(i)];
    EXPECT_EQ(prefix, expected);
  });
}

TEST(ClassicalCollectives, BackToBackCollectivesDoNotInterfere) {
  cl::Runtime::run(5, [](cl::Comm& comm) {
    for (int iter = 0; iter < 20; ++iter) {
      const int b = comm.bcast(iter, iter % comm.size());
      EXPECT_EQ(b, iter);
      const int s = comm.allreduce(1, [](int a, int c) { return a + c; });
      EXPECT_EQ(s, comm.size());
      const int sc = comm.scan(1, [](int a, int c) { return a + c; });
      EXPECT_EQ(sc, comm.rank() + 1);
    }
  });
}
