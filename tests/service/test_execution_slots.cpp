// Execution-slot contract of the qmpid job service: each session's reader
// thread runs that session's commands itself, under a FIFO cap of
// ServiceConfig::executors sessions executing at once. With one slot:
//  - a session flooding one-way batches cannot starve another session's
//    synchronous call (slots are handed out first come, first served);
//  - stop() returns while a reader is queued for the slot;
//  - a client that vanishes does not have its buffered batches run — the
//    reader checks for a hung-up peer before each one-way batch, instead
//    of sweeping through everything the socket still holds until EOF.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "classical/wire.hpp"
#include "core/sim_wire.hpp"
#include "service/job_service.hpp"
#include "service/session_client.hpp"
#include "sim/gates.hpp"

namespace {

using qmpi::sim::QubitId;
using qmpi::service::JobService;
using qmpi::service::ServiceConfig;
using qmpi::service::SessionClient;
using qmpi::service::SessionConfig;
using Clock = std::chrono::steady_clock;

/// 2^20 amplitudes (16 MiB): every fused-cluster sweep takes milliseconds,
/// so a batch of them is a real stretch of slot time.
constexpr unsigned kBigQubits = 20;
/// Ops in one chain_batch over kBigQubits qubits.
constexpr std::uint64_t kChainOps = kBigQubits - 1;

SessionConfig session_config(const JobService& service, unsigned max_qubits) {
  SessionConfig cfg;
  cfg.port = service.port();
  cfg.max_qubits = max_qubits;
  return cfg;
}

ServiceConfig one_slot() {
  ServiceConfig cfg;
  cfg.executors = 1;
  return cfg;
}

/// One kBatch body of `rounds` CNOT chains over `q`. A chain outgrows a
/// fused cluster every few gates, so each round costs several full-state
/// sweeps.
std::vector<std::byte> chain_batch(const std::vector<QubitId>& q,
                                   int rounds = 1) {
  qmpi::classical::WireWriter w;
  w.u8(static_cast<std::uint8_t>(qmpi::SimOp::kBatch));
  w.u32(static_cast<std::uint32_t>(rounds * (q.size() - 1)));
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i + 1 < q.size(); ++i) {
      w.u8(static_cast<std::uint8_t>(qmpi::SimOp::kCnot));
      w.u64(q[i]);
      w.u64(q[i + 1]);
    }
  }
  return w.take();
}

void send_batch(SessionClient& session, const std::vector<std::byte>& body) {
  session.send_raw_batch(session.session_id(), session.epoch(), body);
}

/// Wall time of one fenced chain_batch round on `session`, the best of
/// three, so a test can size its load for any build type.
double seconds_per_round(SessionClient& session,
                         const std::vector<QubitId>& q) {
  const std::vector<std::byte> body = chain_batch(q);
  double best = 1e9;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point t0 = Clock::now();
    send_batch(session, body);
    session.fence();
    best = std::min(
        best, std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return best;
}

/// Polls until `fn` holds or `limit` passes.
template <typename Fn>
bool within(std::chrono::milliseconds limit, Fn fn) {
  const Clock::time_point deadline = Clock::now() + limit;
  while (Clock::now() < deadline) {
    if (fn()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return fn();
}

TEST(ExecutionSlots, FloodingSessionDoesNotStarveAnotherSessionsCall) {
  JobService service(one_slot());
  service.start();
  SessionClient flooder(session_config(service, kBigQubits));
  const std::vector<QubitId> q = flooder.allocate(kBigQubits);
  SessionClient other(session_config(service, 4));
  const std::vector<QubitId> oq = other.allocate(1);

  constexpr int kBatches = 16;
  const std::uint64_t before = service.stats().ops_executed;
  const std::vector<std::byte> body = chain_batch(q);
  for (int i = 0; i < kBatches; ++i) send_batch(flooder, body);

  // The flood is queued behind the slot; the other session's call (and
  // the batch carrying its X) each wait for at most one flooder batch.
  other.apply(qmpi::sim::gate_x(), oq[0]);
  EXPECT_EQ(other.probability_one(oq[0]), 1.0);
  const std::uint64_t ran = service.stats().ops_executed - before;
  EXPECT_LT(ran, kBatches * kChainOps)
      << "the call waited for the whole flood";

  // Every flooded batch still runs: allocate plus all the chains.
  EXPECT_EQ(flooder.close(), 1 + kBatches * kChainOps);
  other.close();
  service.stop();
}

TEST(ExecutionSlots, StopReturnsWhileAReaderWaitsForTheSlot) {
  JobService service(one_slot());
  service.start();
  SessionClient holder(session_config(service, kBigQubits));
  const std::vector<QubitId> q = holder.allocate(kBigQubits);
  SessionClient waiter(session_config(service, 4));
  const std::vector<QubitId> wq = waiter.allocate(1);

  // One batch that holds the only slot for about half a second; the
  // holder's reader is given a head start to take the slot.
  const double round_s = seconds_per_round(holder, q);
  const int rounds = std::max(1, static_cast<int>(0.5 / round_s));
  send_batch(holder, chain_batch(q, rounds));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::atomic<bool> returned{false};
  std::thread call([&] {
    try {
      (void)waiter.probability_one(wq[0]);
    } catch (const qmpi::sim::SimulatorError&) {
      // The stop severs the session before its call gets the slot.
    }
    returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(returned) << "the call did not queue behind the long batch";

  // stop() waits out the running batch, never the queued reader.
  const Clock::time_point t0 = Clock::now();
  service.stop();
  const double stop_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  EXPECT_LT(stop_s, 10.0);
  EXPECT_TRUE(
      within(std::chrono::seconds(10), [&] { return returned.load(); }));
  call.join();
  holder.abandon();
  waiter.abandon();
}

TEST(ExecutionSlots, VanishedClientsBufferedBatchesDoNotRun) {
  JobService service(one_slot());
  service.start();
  auto doomed = std::make_unique<SessionClient>(
      session_config(service, kBigQubits));
  const std::vector<QubitId> q = doomed->allocate(kBigQubits);

  // All of these fit in the socket buffers at once, so the client is gone
  // while nearly all of them still wait to be read.
  constexpr int kBatches = 40;
  const std::vector<std::byte> body = chain_batch(q);
  for (int i = 0; i < kBatches; ++i) send_batch(*doomed, body);
  doomed->abandon();
  const std::uint64_t at_abandon = service.stats().ops_executed;

  // Teardown waits out at most the batch already running.
  ASSERT_TRUE(within(std::chrono::seconds(10),
                     [&] { return service.stats().active_sessions == 0; }))
      << "the vanished session still holds its slot after 10 s";
  EXPECT_LE(service.stats().ops_executed - at_abandon, kChainOps)
      << "batches of a vanished client ran after it was gone";
  service.stop();
}

}  // namespace
