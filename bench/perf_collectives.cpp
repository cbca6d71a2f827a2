// Classical collective benchmark: bcast / allreduce / allgather over the
// TCP transport with the direct peer data plane on vs. off (hub-routed).
//
//   ./build/perf_collectives [--iters n] [--json]
//
// Each job spins up a real Hub plus one HubClient/SocketTransport per
// simulated rank process (one world rank each, so every edge crosses a
// TCP connection), exactly the topology `qmpirun -n N` builds — threads
// stand in for processes so one binary can sweep 2/4/8 ranks and both
// routing modes and emit a single comparable record.
//
// Two payload sizes probe the two costs hub demotion removes:
//   - 8 B: latency-bound. Hub routing pays two wire hops and an extra
//     thread wakeup per message; direct links pay one hop.
//   - 32 KiB: bandwidth-bound. Hub routing moves every byte across
//     loopback twice and copies it two extra times (hub read + forward).
// Both routings run the same schedules (ring allgather, recursive-doubling
// allreduce, binomial bcast), so the per-row figure of merit, the hub/p2p
// time ratio, is the cost of routing alone.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "classical/comm.hpp"
#include "classical/socket_transport.hpp"

using namespace qmpi;
using namespace qmpi::classical;

namespace {

/// The bandwidth-probe payload: one 32 KiB block per rank.
using Block = std::array<std::uint64_t, 4096>;

Block filled(std::uint64_t v) {
  Block b;
  b.fill(v);
  return b;
}

struct CollectiveTimes {
  // [0] = 8-byte payload, [1] = 32 KiB payload.
  std::array<double, 2> bcast_s{};
  std::array<double, 2> allreduce_s{};
  std::array<double, 2> allgather_s{};
};

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "perf_collectives: %s returned a wrong value\n",
                 what);
    std::exit(1);
  }
}

/// One job: `nranks` rank processes over a fresh hub, `iters` timed
/// iterations of each (collective, payload) cell. Rank 0's wall clock
/// between barriers is the job's time (every rank runs the same loop, and
/// the closing barrier means rank 0 cannot finish before the slowest
/// rank).
CollectiveTimes run_job(int nranks, bool p2p, int iters) {
  Hub hub(nranks, 0);
  std::thread server([&] { hub.serve(); });
  CollectiveTimes times;
  std::vector<std::thread> procs;
  for (int p = 0; p < nranks; ++p) {
    procs.emplace_back([&, p] {
      HubClient client("127.0.0.1", hub.port(), p);
      SocketTransport transport(client, nranks, p2p);
      RunConfig cfg;
      cfg.num_ranks = static_cast<std::uint32_t>(nranks);
      cfg.seed = 11;
      client.begin_run(cfg);
      Comm world = Comm::world(transport, p);
      const int me = world.rank();
      const int n = world.size();
      const std::uint64_t rank_sum =
          static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n + 1) /
          2;

      const auto bcast_small = [&] {
        check(world.bcast<std::uint64_t>(me == 0 ? 41 : 0, 0) == 41, "bcast");
      };
      const auto bcast_big = [&] {
        const Block b = world.bcast(me == 0 ? filled(41) : Block{}, 0);
        check(b[7] == 41, "bcast(32KiB)");
      };
      const auto allreduce_small = [&] {
        check(world.allreduce<std::uint64_t>(
                  static_cast<std::uint64_t>(me + 1),
                  [](std::uint64_t a, std::uint64_t b) { return a + b; }) ==
                  rank_sum,
              "allreduce");
      };
      const auto allreduce_big = [&] {
        const Block sum = world.allreduce(
            filled(static_cast<std::uint64_t>(me + 1)),
            [](const Block& a, const Block& b) {
              Block out;
              for (std::size_t i = 0; i < out.size(); ++i)
                out[i] = a[i] + b[i];
              return out;
            });
        check(sum[3] == rank_sum, "allreduce(32KiB)");
      };
      const auto allgather_small = [&] {
        check(world.allgather(static_cast<std::uint64_t>(me))
                      [static_cast<std::size_t>(n / 2)] ==
                  static_cast<std::uint64_t>(n / 2),
              "allgather");
      };
      const auto allgather_big = [&] {
        const auto blocks =
            world.allgather(filled(static_cast<std::uint64_t>(me)));
        check(blocks[static_cast<std::size_t>(n - 1)][0] ==
                  static_cast<std::uint64_t>(n - 1),
              "allgather(32KiB)");
      };

      // Warmup: resolves every peer route (first-send dials) and faults
      // in the mailboxes, so the timed loops measure steady-state sends.
      for (int w = 0; w < 5; ++w) {
        bcast_small();
        allreduce_small();
        allgather_big();
      }

      // The 32 KiB cells move up to ~4 MB per iteration at 8 ranks;
      // fewer iterations keep the sweep's wall time sane without
      // starving the per-cell sample.
      const int big_iters = std::max(iters / 5, 40);
      const auto timed = [&](std::array<double, 2> CollectiveTimes::*slot,
                             int payload, int count, auto&& body) {
        world.barrier();
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < count; ++i) body();
        world.barrier();
        if (me == 0) {
          (times.*slot)[static_cast<std::size_t>(payload)] =
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count() /
              count;
        }
      };
      timed(&CollectiveTimes::bcast_s, 0, iters, bcast_small);
      timed(&CollectiveTimes::bcast_s, 1, big_iters, bcast_big);
      timed(&CollectiveTimes::allreduce_s, 0, iters, allreduce_small);
      timed(&CollectiveTimes::allreduce_s, 1, big_iters, allreduce_big);
      timed(&CollectiveTimes::allgather_s, 0, iters, allgather_small);
      timed(&CollectiveTimes::allgather_s, 1, big_iters, allgather_big);
      (void)client.end_run({});
    });
  }
  for (auto& t : procs) t.join();
  hub.stop();
  server.join();
  return times;
}

int usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--iters n] [--json]\n", argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int iters = 400;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      iters = std::atoi(argv[++i]);
      if (iters < 1 || iters > 1000000) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      return usage(argv[0]);
    }
  }

  struct Row {
    const char* collective;
    int ranks;
    int payload_bytes;
    double p2p_us;
    double hub_us;
  };
  std::vector<Row> rows;
  constexpr int kSmall = 8;
  constexpr int kBig = static_cast<int>(sizeof(Block));
  for (const int nranks : {2, 4, 8}) {
    const CollectiveTimes p2p = run_job(nranks, /*p2p=*/true, iters);
    const CollectiveTimes hub = run_job(nranks, /*p2p=*/false, iters);
    const auto add = [&](const char* name,
                         std::array<double, 2> CollectiveTimes::*slot) {
      rows.push_back({name, nranks, kSmall, (p2p.*slot)[0] * 1e6,
                      (hub.*slot)[0] * 1e6});
      rows.push_back(
          {name, nranks, kBig, (p2p.*slot)[1] * 1e6, (hub.*slot)[1] * 1e6});
    };
    add("bcast", &CollectiveTimes::bcast_s);
    add("allreduce", &CollectiveTimes::allreduce_s);
    add("allgather", &CollectiveTimes::allgather_s);
  }

  if (json) {
    std::printf("{\n  \"benchmark\": \"BM_ClassicalCollectives\",\n"
                "  \"iters\": %d,\n  \"results\": [\n",
                iters);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::printf(
          "    {\"collective\": \"%s\", \"ranks\": %d, \"payload_bytes\": "
          "%d, \"p2p_us\": %.3f, \"hub_us\": %.3f, \"speedup\": %.2f}%s\n",
          r.collective, r.ranks, r.payload_bytes, r.p2p_us, r.hub_us,
          r.p2p_us > 0.0 ? r.hub_us / r.p2p_us : 0.0,
          i + 1 < rows.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
  } else {
    for (const Row& r : rows) {
      std::printf(
          "%-9s n=%d %5d B: p2p %9.3f us/op, hub-routed %9.3f us/op (%.2fx)\n",
          r.collective, r.ranks, r.payload_bytes, r.p2p_us, r.hub_us,
          r.p2p_us > 0.0 ? r.hub_us / r.p2p_us : 0.0);
    }
  }
  return 0;
}
