// Regression test for the per-session thread leak: every accepted
// connection gets a reader thread, and before the fix each finished
// reader stayed unjoined (its stack still mapped) until stop(), so a
// long-lived qmpid grew with every session it ever served. Now the accept
// loop joins finished readers before spawning the next one: after many
// sequential sessions the service holds at most a couple of reader
// threads and the process's live thread count stays flat.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <filesystem>
#include <iterator>
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

constexpr int kSessions = 200;

/// Live threads of this process, as the kernel lists them.
std::size_t live_threads() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(
      std::distance(tasks, std::filesystem::directory_iterator{}));
}

/// Polls until `fn` holds or ~5 s pass (a reader marks itself finished
/// only after its client has already seen the close acknowledgement).
template <typename Fn>
bool eventually(Fn fn) {
  for (int i = 0; i < 500; ++i) {
    if (fn()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return fn();
}

void run_session(const JobService& service) {
  SessionConfig cfg;
  cfg.port = service.port();
  cfg.max_qubits = 2;
  SessionClient session(cfg);
  const std::vector<QubitId> q = session.allocate(2);
  session.apply(qmpi::sim::gate_h(), q[0]);
  session.cnot(q[0], q[1]);
  (void)session.measure(q[0]);
  session.close();
}

TEST(ConnectionReaping, SequentialSessionsKeepThreadCountBounded) {
  ServiceConfig cfg;
  cfg.executors = 2;
  JobService service(cfg);
  service.start();

  // One warm-up session so lazily spawned threads (thread-pool lanes,
  // SIMD init) already exist when the baseline is taken.
  run_session(service);
  ASSERT_TRUE(eventually([&] { return service.stats().active_sessions == 0; }));
  const std::size_t baseline = live_threads();

  for (int i = 0; i < kSessions; ++i) run_session(service);
  ASSERT_TRUE(eventually([&] { return service.stats().active_sessions == 0; }));

  // Only readers whose sessions ended after the latest accept can still be
  // held; without reaping this would be every session ever served. This is
  // the sharp check: the kernel drops an exited thread from
  // /proc/self/task even while it is unjoined, so the live count below
  // guards against readers that never exit, not against unjoined ones.
  EXPECT_TRUE(
      eventually([&] { return service.stats().connection_threads <= 2; }))
      << service.stats().connection_threads << " reader threads held after "
      << kSessions + 1 << " sessions";
  EXPECT_TRUE(eventually([&] { return live_threads() <= baseline + 1; }))
      << live_threads() << " live threads, " << baseline << " at baseline";

  const auto stats = service.stats();
  EXPECT_EQ(stats.admitted, static_cast<std::uint64_t>(kSessions) + 1);
  EXPECT_EQ(stats.rejected, 0u);
  service.stop();
  EXPECT_EQ(service.stats().connection_threads, 0u);
}

}  // namespace
