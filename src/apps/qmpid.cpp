// qmpid: the resident multi-tenant job service (paper §6's shared-backend
// design promoted from one-job-per-launch to a long-lived daemon).
//
//   qmpid [--port P] [--max-sessions N] [--mem-budget BYTES]
//         [--cache N|on|off] [--executors N]
//
// One process hosts many concurrent quantum sessions. Each kSvcOpen is
// admitted against a shared memory budget (a session asking for n qubits
// reserves exactly 2^n amplitudes — over-budget opens get a typed reject
// instead of an OOM; merely-busy capacity queues FIFO), gets its own
// backend with its own seeded RNG and epoch/context-id namespace, and has
// its O(2^n) sweeps run by its connection's reader, taking turns FIFO with
// the other tenants for at most --executors concurrent execution slots.
// Sessions share one compiled-cluster cache, so a repeated circuit — a
// Trotter loop, or the same user job run twice — skips cluster
// compilation entirely.
//
// Clients connect with QMPI_TRANSPORT=service and QMPI_SERVICE_PORT=<P>
// (see docs/ARCHITECTURE.md §9). Environment defaults: QMPI_MAX_SESSIONS,
// QMPI_MEM_BUDGET, QMPI_CIRCUIT_CACHE, QMPI_SERVICE_EXECUTORS; flags
// override the environment. A flag parses by its variable's row of the
// settings table (core/env.hpp): "+8", " 8" or "8 " is a usage error.

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdint>

#include "core/env.hpp"
#include "service/job_service.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--port P] [--max-sessions N] [--mem-budget BYTES]\n"
      "            [--cache N|on|off] [--executors N]\n"
      "  --port <p>          TCP port to serve on (default: ephemeral)\n"
      "  --max-sessions <n>  concurrent session cap (QMPI_MAX_SESSIONS)\n"
      "  --mem-budget <b>    total amplitude memory in bytes"
      " (QMPI_MEM_BUDGET)\n"
      "  --cache <n|on|off>  compiled-circuit cache entries"
      " (QMPI_CIRCUIT_CACHE)\n"
      "  --executors <n>     sessions executing at once"
      " (QMPI_SERVICE_EXECUTORS)\n"
      "A flag accepts exactly what its variable accepts (README.md's\n"
      "environment table) and overrides it.\n",
      argv0);
  return 2;
}

volatile std::sig_atomic_t g_stop_requested = 0;

void handle_signal(int) { g_stop_requested = 1; }

}  // namespace

int main(int argc, char** argv) {
  qmpi::service::ServiceConfig cfg;
  try {
    cfg = qmpi::service::ServiceConfig::from_env();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qmpid: %s\n", e.what());
    return 1;
  }

  using qmpi::env::Var;
  for (int argi = 1; argi < argc; argi += 2) {
    const qmpi::env::Setting* flag = qmpi::env::find_flag(argv[argi]);
    if (flag == nullptr || flag->var == Var::kProcs || argi + 1 >= argc) {
      std::fprintf(stderr, "qmpid: unknown argument \"%s\"\n", argv[argi]);
      return usage(argv[0]);
    }
    std::uint64_t v = 0;
    try {
      v = qmpi::env::parse(flag->var, argv[argi + 1], flag->flag);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "qmpid: %s\n", e.what());
      return usage(argv[0]);
    }
    if (flag->var == Var::kPort) cfg.port = static_cast<std::uint16_t>(v);
    if (flag->var == Var::kMaxSessions) cfg.max_sessions = v;
    if (flag->var == Var::kMemBudget) cfg.mem_budget_bytes = v;
    if (flag->var == Var::kCircuitCache) cfg.circuit_cache_entries = v;
    if (flag->var == Var::kServiceExecutors) {
      cfg.executors = static_cast<unsigned>(v);
    }
  }

  qmpi::service::JobService service(cfg);
  try {
    service.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qmpid: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr,
               "qmpid: serving on 127.0.0.1:%u (max sessions %zu, budget %llu "
               "amplitudes, cache %zu entries)\n",
               service.port(), cfg.max_sessions,
               static_cast<unsigned long long>(service.budget_amps()),
               cfg.circuit_cache_entries);

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  while (!g_stop_requested) {
    ::pause();  // returns on any signal delivery
  }

  const qmpi::service::ServiceStats stats = service.stats();
  service.stop();
  std::fprintf(stderr,
               "qmpid: stopped (admitted %llu, rejected %llu, queued %llu, "
               "ops %llu, forged frames dropped %llu, cache %llu/%llu "
               "hits/misses)\n",
               static_cast<unsigned long long>(stats.admitted),
               static_cast<unsigned long long>(stats.rejected),
               static_cast<unsigned long long>(stats.queued_admissions),
               static_cast<unsigned long long>(stats.ops_executed),
               static_cast<unsigned long long>(stats.forged_dropped),
               static_cast<unsigned long long>(stats.cache_hits),
               static_cast<unsigned long long>(stats.cache_misses));
  return 0;
}
