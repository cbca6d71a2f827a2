// Regression test for the session-teardown leak: a session whose client
// disconnects MID-RUN (no kSvcClose handshake, commands still in flight)
// must have its backend-pool slot, amplitude reservation, and execution
// slot released — the next admission succeeds and the service stays
// healthy.
// Before the fix, the dead session kept its slot and a max_sessions=1
// service was wedged forever.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "service/job_service.hpp"
#include "service/session_client.hpp"
#include "sim/gates.hpp"

namespace {

using qmpi::sim::QubitId;
using qmpi::service::JobService;
using qmpi::service::ServiceConfig;
using qmpi::service::SessionClient;
using qmpi::service::SessionConfig;

SessionConfig session_config(const JobService& service, unsigned max_qubits) {
  SessionConfig cfg;
  cfg.port = service.port();
  cfg.max_qubits = max_qubits;
  // Tiny batches keep commands flowing one by one, so the abrupt
  // disconnect below lands while work is genuinely in flight.
  cfg.max_batch_ops = 4;
  return cfg;
}

/// Polls until `fn` holds or ~5 s pass (teardown is asynchronous: the
/// reader thread finishes the command it is running, then notices the
/// dead socket).
template <typename Fn>
bool eventually(Fn fn) {
  for (int i = 0; i < 500; ++i) {
    if (fn()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return fn();
}

TEST(Teardown, MidRunDisconnectReleasesSlotAndNextAdmissionSucceeds) {
  ServiceConfig cfg;
  cfg.max_sessions = 1;  // the leak, if present, wedges the service
  JobService service(cfg);
  service.start();

  {
    auto doomed = std::make_unique<SessionClient>(session_config(service, 10));
    const std::vector<QubitId> q = doomed->allocate(10);
    // Queue a pile of O(2^n) sweeps, then vanish without the close
    // handshake — exactly what a killed client process looks like.
    for (int r = 0; r < 50; ++r) {
      for (const QubitId qi : q) doomed->apply(qmpi::sim::gate_h(), qi);
      for (std::size_t i = 0; i + 1 < q.size(); ++i) {
        doomed->cnot(q[i], q[i + 1]);
      }
    }
    doomed->flush();
    doomed->abandon();  // abrupt ::close(fd), no kSvcClose
  }

  ASSERT_TRUE(eventually([&] { return service.stats().active_sessions == 0; }))
      << "dead session still holds its slot";

  // The slot and the full amplitude reservation are back: a new session of
  // the same size admits and runs normally.
  SessionClient next(session_config(service, 10));
  const std::vector<QubitId> q = next.allocate(10);
  next.apply(qmpi::sim::gate_x(), q[0]);
  EXPECT_EQ(next.probability_one(q[0]), 1.0);
  next.close();

  // Erasure after a clean close is asynchronous too (the reader thread
  // sees EOF after kSvcClosed), so poll rather than assert instantly.
  EXPECT_TRUE(eventually([&] { return service.stats().active_sessions == 0; }));
  const auto stats = service.stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.rejected, 0u);
  service.stop();
}

TEST(Teardown, RepeatedMidRunKillsNeverExhaustThePool) {
  ServiceConfig cfg;
  cfg.max_sessions = 2;
  JobService service(cfg);
  service.start();

  // A leak of even one slot per kill would exhaust max_sessions=2 fast.
  for (int round = 0; round < 6; ++round) {
    auto doomed = std::make_unique<SessionClient>(session_config(service, 8));
    const std::vector<QubitId> q = doomed->allocate(8);
    for (int r = 0; r < 10; ++r) {
      for (const QubitId qi : q) doomed->apply(qmpi::sim::gate_h(), qi);
    }
    doomed->flush();
    doomed->abandon();
    ASSERT_TRUE(
        eventually([&] { return service.stats().active_sessions == 0; }))
        << "leak after kill round " << round;
  }

  // Full capacity is still available.
  SessionClient a(session_config(service, 8));
  SessionClient b(session_config(service, 8));
  EXPECT_EQ(service.stats().active_sessions, 2u);
  a.close();
  b.close();
  service.stop();
}

}  // namespace
