// qmpirun: the mpirun of this prototype, for real OS processes.
//
//   qmpirun -n 4 [--port P] ./build/core_test_epr [args...]
//
// Starts the job hub (control plane and classical message relay; it hosts
// no quantum state — rank 0's process hosts the serial or sharded backend
// of paper §6, and the distributed backend lives in every rank process),
// forks N copies of the program with QMPI_TRANSPORT=tcp and the hub
// coordinates (QMPI_TCP_HOST/PORT, QMPI_PROC_ID) in their environment,
// serves until every process exits, and exits with the first nonzero
// child status so CI sees failures.
//
// Each qmpi::run(n, ...) inside the program becomes one hub-bracketed run:
// the n ranks are split into contiguous blocks over the N processes
// (oversubscribing with rank threads when n > N, leaving processes idle at
// the barriers when n < N), so unmodified test suites with varying rank
// counts execute across processes.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "classical/socket_transport.hpp"
#include "core/env.hpp"
#include "sim/backend.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s -n <nprocs> [--port <port>] <program> [args...]\n"
               "  -n <nprocs>   number of rank processes to fork (>= 1)\n"
               "  --port <p>    hub TCP port (default: ephemeral)\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // -n and --port parse by their rows of the settings table
  // (core/env.hpp), like the QMPI_* variables: "+2" is a usage error.
  using qmpi::env::Var;
  std::uint64_t nprocs = 0;
  std::uint64_t port = 0;
  int argi = 1;
  for (; argi + 1 < argc; argi += 2) {
    const qmpi::env::Setting* flag = qmpi::env::find_flag(argv[argi]);
    if (flag == nullptr ||
        (flag->var != Var::kProcs && flag->var != Var::kPort)) {
      break;
    }
    try {
      (flag->var == Var::kProcs ? nprocs : port) =
          qmpi::env::parse(flag->var, argv[argi + 1], flag->flag);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "qmpirun: %s\n", e.what());
      return usage(argv[0]);
    }
  }
  if (nprocs == 0 || argi >= argc) {
    return usage(argv[0]);
  }

  using qmpi::classical::Hub;

  const int num_procs = static_cast<int>(nprocs);
  std::unique_ptr<Hub> hub;
  try {
    hub = std::make_unique<Hub>(num_procs, static_cast<std::uint16_t>(port));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qmpirun: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "qmpirun: hub on 127.0.0.1:%u, forking %d x %s\n",
               hub->port(), num_procs, argv[argi]);

  const std::string port_str = std::to_string(hub->port());
  std::vector<pid_t> children;
  for (int p = 0; p < num_procs; ++p) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::fprintf(stderr, "qmpirun: fork failed: %s\n", std::strerror(errno));
      hub->stop();
      for (const pid_t c : children) ::kill(c, SIGTERM);
      return 1;
    }
    if (pid == 0) {
      ::setenv("QMPI_TRANSPORT", "tcp", 1);
      ::setenv("QMPI_TCP_HOST", "127.0.0.1", 1);
      ::setenv("QMPI_TCP_PORT", port_str.c_str(), 1);
      ::setenv("QMPI_PROC_ID", std::to_string(p).c_str(), 1);
      ::execvp(argv[argi], &argv[argi]);
      std::fprintf(stderr, "qmpirun: cannot exec %s: %s\n", argv[argi],
                   std::strerror(errno));
      std::_Exit(127);
    }
    children.push_back(pid);
  }

  // serve() returns once all processes connect and later disconnect; run
  // it on a thread so a child that dies before ever connecting (exec
  // failure, crash at startup) cannot wedge the launcher — reaping all
  // children below stops the hub either way.
  std::thread server([&hub] {
    try {
      hub->serve();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "qmpirun: hub error: %s\n", e.what());
    }
  });

  // Reap children with a poll loop so the partial-job check keeps being
  // re-evaluated: a child that crashes at startup may be reaped before any
  // sibling has finished its HELLO handshake, and the hang it causes only
  // becomes visible once the survivors connect and block at the begin
  // barrier. A program where NO child ever connects simply never used
  // QMPI and is judged by its exit codes alone.
  int exit_code = 0;
  std::size_t reaped = 0;
  bool hub_stopped = false;
  auto check_partial_job = [&] {
    const int connected = hub->connected_count();
    if (!hub_stopped && reaped > 0 && connected > 0 &&
        connected < num_procs) {
      std::fprintf(stderr,
                   "qmpirun: a process left the partially formed job "
                   "(%d/%d connected); stopping the hub\n",
                   connected, num_procs);
      if (exit_code == 0) exit_code = 1;
      hub_stopped = true;
      hub->stop();
    }
  };
  while (reaped < children.size()) {
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, WNOHANG);
    if (pid < 0) break;
    if (pid == 0) {
      check_partial_job();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }
    ++reaped;
    int code = 0;
    if (WIFEXITED(status)) {
      code = WEXITSTATUS(status);
    } else if (WIFSIGNALED(status)) {
      std::fprintf(stderr, "qmpirun: process %d killed by signal %d\n",
                   static_cast<int>(pid), WTERMSIG(status));
      code = 128 + WTERMSIG(status);
    }
    if (exit_code == 0 && code != 0) exit_code = code;
    check_partial_job();
  }
  hub->stop();
  server.join();
  if (static_cast<qmpi::sim::BackendKind>(hub->last_run_config().backend) ==
      qmpi::sim::BackendKind::kDistributed) {
    // The acceptance line for the distributed data plane: with all
    // amplitude traffic on rank-to-rank links, this stays at 0. The hub
    // counts (and rejects) every quantum-op frame that reaches it.
    std::fprintf(stderr, "qmpirun: hub quantum ops: %llu (distributed)\n",
                 static_cast<unsigned long long>(
                     hub->retired_quantum_frames()));
  }
  if (exit_code != 0) {
    std::fprintf(stderr, "qmpirun: job failed with status %d\n", exit_code);
  }
  return exit_code;
}
