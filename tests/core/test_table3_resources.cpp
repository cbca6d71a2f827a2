// Table 3 (paper §4.5): every quantum collective inherits the resource
// class of the point-to-point transfer its schedule is built from. Per
// remote qubit transferred, a copy costs 1 EPR pair + 1 classical bit, an
// uncopy 1 bit, and a move or unmove 1 EPR pair + 2 bits (Table 1). These
// tests run each collective and its inverse at N = 1..5, roots 0 and N-1,
// uniform and uneven counts, and require the per-category totals to equal
// those closed forms, with every other category at zero. Collectives whose
// every rank holds N blocks stay within state-vector reach only for small
// N: allgather (N^2 + N qubits) runs to N = 4, the all-to-all family
// (2N^2 qubits plus EPR halves) to N = 3.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "helpers.hpp"

using namespace qmpi;

namespace {

constexpr std::size_t kCategories =
    static_cast<std::size_t>(OpCategory::kCount_);

struct Expected {
  OpCategory category;
  std::uint64_t epr_pairs;
  std::uint64_t classical_bits;
};

/// Runs `body` on `n` ranks and checks every category of the report:
/// the listed ones must match exactly, all others must be zero.
void expect_resources(int n, const std::function<void(Context&)>& body,
                      const std::vector<Expected>& expected) {
  const JobReport report = run(n, body);
  for (std::size_t c = 0; c < kCategories; ++c) {
    const auto category = static_cast<OpCategory>(c);
    ResourceTracker::Counts want;
    for (const Expected& e : expected) {
      if (e.category == category) {
        want.epr_pairs = e.epr_pairs;
        want.classical_bits = e.classical_bits;
      }
    }
    EXPECT_EQ(report[category].epr_pairs, want.epr_pairs)
        << to_string(category) << " EPR pairs";
    EXPECT_EQ(report[category].classical_bits, want.classical_bits)
        << to_string(category) << " classical bits";
  }
}

/// Copy forward, uncopy in reverse, for `t` remote qubit transfers.
std::vector<Expected> copy_class(std::uint64_t t) {
  return {{OpCategory::kCopy, t, t}, {OpCategory::kUncopy, 0, t}};
}

/// Move forward and back (teleport both ways), for `t` remote transfers.
std::vector<Expected> move_class(std::uint64_t t) {
  return {{OpCategory::kMove, t, 2 * t}, {OpCategory::kUnmove, t, 2 * t}};
}

/// Uneven per-rank block sizes, zeros included: 1, 0, 2, 1, 0, ...
std::vector<std::size_t> uneven_counts(int n) {
  std::vector<std::size_t> counts(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    counts[static_cast<std::size_t>(r)] =
        static_cast<std::size_t>((2 * r + 1) % 3);
  }
  return counts;
}

/// Qubits rank `from` sends rank `to` in the uneven alltoallv: zeros,
/// ones, and at N = 3 a two-qubit block from a higher to a lower rank.
std::size_t pair_count(int from, int to) {
  return static_cast<std::size_t>(from > to ? from - to : (to - from) % 2);
}

std::size_t sum(const std::vector<std::size_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::size_t{0});
}

void load(Context& ctx, const Qubit* q, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    ctx.ry(q[i], 0.3 + 0.2 * ctx.rank() + 0.1 * static_cast<double>(i));
  }
}

std::vector<int> roots_of(int n) {
  return n == 1 ? std::vector<int>{0} : std::vector<int>{0, n - 1};
}

std::string where(int n, int root) {
  return "N=" + std::to_string(n) + " root=" + std::to_string(root);
}

}  // namespace

TEST(Table3Resources, BcastBothAlgorithms) {
  for (const BcastAlg alg : {BcastAlg::kBinomialTree, BcastAlg::kCatState}) {
    for (int n = 1; n <= 5; ++n) {
      for (const int root : roots_of(n)) {
        SCOPED_TRACE(where(n, root) +
                     (alg == BcastAlg::kCatState ? " cat" : " tree"));
        expect_resources(
            n,
            [root, alg](Context& ctx) {
              QubitArray q = ctx.alloc_qmem(2);
              if (ctx.rank() == root) load(ctx, q, 2);
              ctx.bcast(q, 2, root, alg);
              ctx.unbcast(q, 2, root);
            },
            copy_class(2 * static_cast<std::uint64_t>(n - 1)));
      }
    }
  }
}

TEST(Table3Resources, GatherAndScatterUniform) {
  for (int n = 1; n <= 5; ++n) {
    for (const int root : roots_of(n)) {
      SCOPED_TRACE(where(n, root));
      const std::size_t total = static_cast<std::size_t>(n);
      const auto t = static_cast<std::uint64_t>(n - 1);
      expect_resources(
          n,
          [root, total](Context& ctx) {
            QubitArray mine = ctx.alloc_qmem(1);
            load(ctx, mine, 1);
            QubitArray slots =
                ctx.rank() == root ? ctx.alloc_qmem(total) : QubitArray();
            ctx.gather(mine, 1, slots.data(), root);
            ctx.ungather(mine, 1, slots.data(), root);
          },
          copy_class(t));
      expect_resources(
          n,
          [root, total](Context& ctx) {
            QubitArray src =
                ctx.rank() == root ? ctx.alloc_qmem(total) : QubitArray();
            load(ctx, src.data(), src.size());
            QubitArray mine = ctx.alloc_qmem(1);
            ctx.scatter(src.data(), mine, 1, root);
            ctx.unscatter(src.data(), mine, 1, root);
          },
          copy_class(t));
    }
  }
}

TEST(Table3Resources, GathervAndScattervUneven) {
  for (int n = 1; n <= 5; ++n) {
    const auto counts = uneven_counts(n);
    for (const int root : roots_of(n)) {
      SCOPED_TRACE(where(n, root));
      const std::size_t total = sum(counts);
      const auto t = static_cast<std::uint64_t>(
          total - counts[static_cast<std::size_t>(root)]);
      expect_resources(
          n,
          [root, total, &counts](Context& ctx) {
            const std::size_t c = counts[static_cast<std::size_t>(ctx.rank())];
            QubitArray mine = ctx.alloc_qmem(c);
            load(ctx, mine, c);
            QubitArray slots =
                ctx.rank() == root ? ctx.alloc_qmem(total) : QubitArray();
            ctx.gatherv(mine, counts, slots.data(), root);
            ctx.ungatherv(mine, counts, slots.data(), root);
          },
          copy_class(t));
      expect_resources(
          n,
          [root, total, &counts](Context& ctx) {
            QubitArray src =
                ctx.rank() == root ? ctx.alloc_qmem(total) : QubitArray();
            load(ctx, src.data(), src.size());
            QubitArray mine = ctx.alloc_qmem(
                counts[static_cast<std::size_t>(ctx.rank())]);
            ctx.scatterv(src.data(), counts, mine.data(), root);
            ctx.unscatterv(src.data(), counts, mine.data(), root);
          },
          copy_class(t));
    }
  }
}

TEST(Table3Resources, GatherMoveAndScatterMove) {
  for (int n = 1; n <= 5; ++n) {
    for (const int root : roots_of(n)) {
      SCOPED_TRACE(where(n, root));
      const std::size_t total = static_cast<std::size_t>(n);
      const auto t = static_cast<std::uint64_t>(n - 1);
      expect_resources(
          n,
          [root, total](Context& ctx) {
            QubitArray mine = ctx.alloc_qmem(1);
            load(ctx, mine, 1);
            QubitArray slots =
                ctx.rank() == root ? ctx.alloc_qmem(total) : QubitArray();
            ctx.gather_move(mine, 1, slots.data(), root);
            ctx.ungather_move(mine.data(), 1, slots.data(), root);
          },
          move_class(t));
      expect_resources(
          n,
          [root, total](Context& ctx) {
            QubitArray src =
                ctx.rank() == root ? ctx.alloc_qmem(total) : QubitArray();
            load(ctx, src.data(), src.size());
            QubitArray mine = ctx.alloc_qmem(1);
            ctx.scatter_move(src.data(), mine.data(), 1, root);
            ctx.unscatter_move(src.data(), mine.data(), 1, root);
          },
          move_class(t));
    }
  }
}

TEST(Table3Resources, Allgather) {
  // One broadcast per contributing rank: N(N-1) transfers per qubit.
  for (int n = 1; n <= 4; ++n) {
    SCOPED_TRACE("N=" + std::to_string(n));
    const std::size_t total = static_cast<std::size_t>(n);
    expect_resources(
        n,
        [total](Context& ctx) {
          QubitArray mine = ctx.alloc_qmem(1);
          load(ctx, mine, 1);
          QubitArray slots = ctx.alloc_qmem(total);
          ctx.allgather(mine, 1, slots.data());
          ctx.unallgather(mine, 1, slots.data());
        },
        copy_class(static_cast<std::uint64_t>(n * (n - 1))));
  }
}

TEST(Table3Resources, AlltoallUniformAndMove) {
  for (int n = 1; n <= 3; ++n) {
    SCOPED_TRACE("N=" + std::to_string(n));
    const std::size_t total = static_cast<std::size_t>(n);
    const auto t = static_cast<std::uint64_t>(n * (n - 1));
    expect_resources(
        n,
        [total](Context& ctx) {
          QubitArray out = ctx.alloc_qmem(total);
          load(ctx, out, total);
          QubitArray in = ctx.alloc_qmem(total);
          ctx.alltoall(out.data(), in.data(), 1);
          ctx.unalltoall(out.data(), in.data(), 1);
        },
        copy_class(t));
    // alltoall_move has no named inverse: a second alltoall_move with the
    // blocks transposed teleports every block back, again under kMove.
    expect_resources(
        n,
        [total](Context& ctx) {
          QubitArray out = ctx.alloc_qmem(total);
          load(ctx, out, total);
          QubitArray in = ctx.alloc_qmem(total);
          ctx.alltoall_move(out.data(), in.data(), 1);
          ctx.alltoall_move(in.data(), out.data(), 1);
        },
        {{OpCategory::kMove, 2 * t, 4 * t}});
  }
}

TEST(Table3Resources, AlltoallvUneven) {
  for (int n = 1; n <= 3; ++n) {
    SCOPED_TRACE("N=" + std::to_string(n));
    std::uint64_t t = 0;
    for (int from = 0; from < n; ++from) {
      for (int to = 0; to < n; ++to) {
        if (from != to) t += pair_count(from, to);
      }
    }
    expect_resources(
        n,
        [n](Context& ctx) {
          std::vector<std::size_t> send_counts(static_cast<std::size_t>(n));
          std::vector<std::size_t> recv_counts(static_cast<std::size_t>(n));
          for (int peer = 0; peer < n; ++peer) {
            send_counts[static_cast<std::size_t>(peer)] =
                pair_count(ctx.rank(), peer);
            recv_counts[static_cast<std::size_t>(peer)] =
                pair_count(peer, ctx.rank());
          }
          QubitArray out = ctx.alloc_qmem(sum(send_counts));
          load(ctx, out, out.size());
          QubitArray in = ctx.alloc_qmem(sum(recv_counts));
          ctx.alltoallv(out.data(), send_counts, in.data(), recv_counts);
          ctx.unalltoallv(out.data(), send_counts, in.data(), recv_counts);
        },
        copy_class(t));
  }
}
