// Tests for the SimServer monitor: ordering, exceptions, calling-thread
// execution, and concurrent calls from many client threads (the rank-0
// serialization point of paper §6).
#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/server.hpp"

namespace sim = qmpi::sim;

TEST(SimServer, ExecutesSubmissionsInOrder) {
  sim::SimServer server;
  const auto q =
      server.call([](sim::Backend& sv) { return sv.allocate(1); });
  server.call([&](sim::Backend& sv) {
    sv.x(q[0]);
    return 0;
  });
  const bool one = server.call(
      [&](sim::Backend& sv) { return sv.probability_one(q[0]) > 0.5; });
  EXPECT_TRUE(one);
}

TEST(SimServer, CallPropagatesExceptions) {
  sim::SimServer server;
  EXPECT_THROW(server.call([](sim::Backend& sv) {
                 sv.x(12345);  // unknown qubit
                 return 0;
               }),
               sim::SimulatorError);
  // Server must survive the exception (releasing its mutex) and keep
  // serving.
  const auto q =
      server.call([](sim::Backend& sv) { return sv.allocate(1); });
  EXPECT_EQ(q.size(), 1u);
}

TEST(SimServer, ConcurrentClientsSeeConsistentGlobalState) {
  sim::SimServer server;
  constexpr int kClients = 8;
  constexpr int kOpsPerClient = 50;
  // Each client allocates a qubit and toggles it an even number of times;
  // afterwards every qubit must be back in |0>.
  std::vector<std::thread> clients;
  std::vector<std::vector<sim::QubitId>> ids(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &ids, c] {
      ids[static_cast<std::size_t>(c)] =
          server.call([](sim::Backend& sv) { return sv.allocate(1); });
      const auto q = ids[static_cast<std::size_t>(c)][0];
      for (int i = 0; i < kOpsPerClient; ++i) {
        server.call([q](sim::Backend& sv) {
          sv.x(q);
          return 0;
        });
      }
    });
  }
  for (auto& t : clients) t.join();
  for (const auto& qs : ids) {
    const double p1 = server.call(
        [q = qs[0]](sim::Backend& sv) { return sv.probability_one(q); });
    EXPECT_DOUBLE_EQ(p1, 0.0);  // 50 toggles = even
  }
}

TEST(SimServer, HostsShardedBackendWithIdenticalResults) {
  // The server is backend-agnostic: the same submissions against a sharded
  // backend must produce bit-identical state to the serial default.
  sim::SimServer serial;
  sim::SimServer sharded(sim::kDefaultSeed, /*num_threads=*/1,
                         sim::BackendKind::kSharded, /*num_shards=*/4);
  EXPECT_STREQ(serial.backend_name(), "serial");
  EXPECT_STREQ(sharded.backend_name(), "sharded");
  auto program = [](sim::SimServer& server) {
    const auto q =
        server.call([](sim::Backend& sv) { return sv.allocate(6); });
    return server.call([&q](sim::Backend& sv) {
      sv.h(q[0]);
      for (std::size_t i = 0; i + 1 < q.size(); ++i) sv.cnot(q[i], q[i + 1]);
      sv.ry(q[5], 0.3);
      (void)sv.measure(q[2]);
      return sv.snapshot();
    });
  };
  const auto a = program(serial);
  const auto b = program(sharded);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "amplitude " << i;
  }
}

TEST(SimServer, CallRunsOnTheCallingThread) {
  // No hand-off: the closure executes on whichever thread calls, so a rank
  // thread enters the backend directly.
  sim::SimServer server;
  const auto on = [&server] {
    return server.call(
        [](sim::Backend&) { return std::this_thread::get_id(); });
  };
  EXPECT_EQ(on(), std::this_thread::get_id());
  std::thread::id other_caller;
  std::thread::id ran_on;
  std::thread([&] {
    other_caller = std::this_thread::get_id();
    ran_on = on();
  }).join();
  EXPECT_EQ(ran_on, other_caller);
  EXPECT_NE(ran_on, std::this_thread::get_id());
}

TEST(SimServer, ConcurrentCallersWithThrowingOpsLeaveConsistentState) {
  // Failing calls interleaved with good ones from many threads: every
  // exception reaches its own caller, the mutex is released on the way
  // out, and the state reflects exactly the operations that ran — a
  // closure that throws after mutating keeps its mutation.
  sim::SimServer server;
  constexpr int kClients = 8;
  constexpr int kOpsPerClient = 60;
  std::vector<std::thread> clients;
  std::vector<sim::QubitId> ids(kClients);
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &ids, &failures, c] {
      const auto slot = static_cast<std::size_t>(c);
      ids[slot] =
          server.call([](sim::Backend& sv) { return sv.allocate(1); })[0];
      const sim::QubitId q = ids[slot];
      for (int i = 0; i < kOpsPerClient; ++i) {
        if (i % 3 == 0) {
          try {
            server.call([](sim::Backend& sv) {
              sv.x(12345);  // unknown qubit: the backend rejects it
              return 0;
            });
          } catch (const sim::SimulatorError&) {
            ++failures[slot];
          }
        }
        if (i % 4 == 1) {
          try {
            server.call([q](sim::Backend& sv) -> int {
              sv.x(q);
              throw std::runtime_error("after a toggle");
            });
          } catch (const std::runtime_error&) {
            ++failures[slot];
          }
        } else {
          server.call([q](sim::Backend& sv) {
            sv.x(q);
            return 0;
          });
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(server.call([](sim::Backend& sv) { return sv.num_qubits(); }),
            static_cast<std::size_t>(kClients));
  for (int c = 0; c < kClients; ++c) {
    const auto slot = static_cast<std::size_t>(c);
    EXPECT_EQ(failures[slot], kOpsPerClient / 3 + kOpsPerClient / 4);
    const double p1 = server.call(
        [q = ids[slot]](sim::Backend& sv) { return sv.probability_one(q); });
    EXPECT_DOUBLE_EQ(p1, 0.0);  // 60 toggles = even
  }
}
