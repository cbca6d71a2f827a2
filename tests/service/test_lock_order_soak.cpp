// Clean-run soak for the lock-order validator: eight concurrent sessions
// drive the full qmpid locking surface (JobService admission + slots,
// SessionClient batching, ClusterCache, backend thread pool) with the
// validator forced on. The assertion is two-sided: the run records a
// non-trivial ordering graph (the instrumentation demonstrably observed
// the service's locks) and zero violations (the hierarchy documented in
// docs/ARCHITECTURE.md §10 holds under real concurrency).
#include <gtest/gtest.h>

#include <barrier>
#include <cstddef>
#include <thread>
#include <vector>

#include "core/lock_order.hpp"
#include "service/job_service.hpp"
#include "service/session_client.hpp"
#include "sim/gates.hpp"

namespace {

using qmpi::service::JobService;
using qmpi::service::ServiceConfig;
using qmpi::service::SessionClient;
using qmpi::service::SessionConfig;

constexpr std::size_t kSessions = 8;
constexpr int kQubits = 6;

void run_session(const JobService& service, std::uint64_t seed) {
  SessionConfig cfg;
  cfg.port = service.port();
  cfg.seed = seed;
  cfg.max_qubits = kQubits;
  // Small batches maximize service-side interleaving: every few ops cross
  // the slot/cache/pool locks instead of one giant batch per session.
  cfg.max_batch_ops = 4;
  SessionClient session(cfg);
  const std::vector<qmpi::sim::QubitId> q = session.allocate(kQubits);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < kQubits; ++i) {
      session.apply(qmpi::sim::gate_h(), q[static_cast<std::size_t>(i)]);
    }
    for (int i = 0; i + 1 < kQubits; ++i) {
      session.cnot(q[static_cast<std::size_t>(i)],
                   q[static_cast<std::size_t>(i + 1)]);
    }
    (void)session.probability_one(q[0]);
  }
  for (int i = 0; i < kQubits; ++i) {
    (void)session.measure(q[static_cast<std::size_t>(i)]);
  }
  session.deallocate_classical(q);
  session.flush();
  session.close();
}

TEST(LockOrderSoak, EightConcurrentSessionsRecordNoViolations) {
  qmpi::lockorder::reset_for_test();
  qmpi::lockorder::set_enabled(true);

  {
    ServiceConfig cfg;
    cfg.max_sessions = kSessions;
    JobService service(cfg);
    service.start();

    std::barrier gate(static_cast<std::ptrdiff_t>(kSessions));
    std::vector<std::thread> tenants;
    tenants.reserve(kSessions);
    for (std::size_t i = 0; i < kSessions; ++i) {
      tenants.emplace_back([&, i] {
        gate.arrive_and_wait();  // all sessions in flight together
        run_session(service, 0xC0FFEE00 + 31 * i);
      });
    }
    for (auto& t : tenants) t.join();
    service.stop();
  }

  // A violation inside a service thread would also have thrown there (and
  // failed the run above); the counter additionally catches one whose
  // LockOrderError was swallowed by a broad catch on an I/O path.
  EXPECT_EQ(qmpi::lockorder::violation_count(), 0u);
  EXPECT_GT(qmpi::lockorder::edge_count(), 0u);
  qmpi::lockorder::set_enabled(false);
}

}  // namespace
