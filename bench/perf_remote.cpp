// Remote-path benchmark: a gate-dense Trotter step driven through the
// QMPI job harness, with the quantum-op batch pipeline on vs. off, plus
// a distributed-backend series (QMPI_BACKEND=distributed: each process
// hosts a state-vector replica, no quantum op crosses the hub).
//
//   ./build/perf_remote [options]               # in-process baseline
//   ./build/qmpirun -n 2 ./build/perf_remote    # the interesting run:
//                                               # rank 1's gates cross a
//                                               # real TCP hop to the
//                                               # backend rank 0's
//                                               # process hosts
//
// Options:
//   --qubits <n>   qubits per rank (default 6)
//   --steps <n>    Trotter steps (default 60)
//   --json         emit a BENCH_remote.json-style record on stdout
//   --paritycheck  run batched, unbatched, and distributed, compare
//                  observables, exit nonzero on divergence (outcomes
//                  exact, values 1e-9)
//
// Under qmpirun every forked process runs this main; the process hosting
// rank 0 does the reporting. The figure of merit is the batched/unbatched
// throughput ratio: unbatched, a gate-dense circuit is latency-bound (one
// blocking round trip per gate — the overhead the QMPI runtime design
// argues must be amortized); batched, reply-free gates stream in one-way
// batch messages and only synchronization points round-trip.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/qmpi.hpp"

using namespace qmpi;

namespace {

struct Observation {
  std::map<int, std::vector<int>> outcomes;   ///< per world rank, exact
  std::map<int, std::vector<double>> values;  ///< per world rank, 1e-9
  bool hosted_rank0 = false;
  double seconds = 0.0;
  std::uint64_t gates = 0;
};

/// One timed job: `steps` first-order TFIM Trotter steps on each rank's
/// private register, then rank-ordered measurements of every qubit.
/// `distributed` swaps the rank-0-hosted backend for the distributed state
/// vector (each process a replica, slabs rank-to-rank, zero hub quantum
/// ops); under the in-process transport that falls back to sharded, so
/// the series degenerates to ~1x there just like batching does.
Observation run_trotter(std::size_t batch_ops, int qubits, int steps,
                        bool distributed = false) {
  Observation obs;
  std::mutex mu;
  JobOptions opts = JobOptions::from_env();  // tcp coordinates under qmpirun
  opts.num_ranks = 2;
  opts.seed = 4242;
  opts.sim_batch_ops = batch_ops;
  if (distributed) opts.backend = sim::BackendKind::kDistributed;
  const auto t0 = std::chrono::steady_clock::now();
  run(opts, [&](Context& ctx) {
    std::vector<int> outs;
    std::vector<double> vals;
    std::uint64_t gates = 0;
    QubitArray q = ctx.alloc_qmem(static_cast<std::size_t>(qubits));
    for (int s = 0; s < steps; ++s) {
      // ZZ couplings along the chain, then the transverse field.
      for (int i = 0; i + 1 < qubits; ++i) {
        ctx.cnot(q[static_cast<std::size_t>(i)],
                 q[static_cast<std::size_t>(i + 1)]);
        ctx.rz(q[static_cast<std::size_t>(i + 1)], 0.05 * (s + 1));
        ctx.cnot(q[static_cast<std::size_t>(i)],
                 q[static_cast<std::size_t>(i + 1)]);
        gates += 3;
      }
      for (int i = 0; i < qubits; ++i) {
        ctx.rx(q[static_cast<std::size_t>(i)], 0.1);
        ++gates;
      }
    }
    for (int i = 0; i < qubits; ++i) {
      vals.push_back(ctx.probability_one(q[static_cast<std::size_t>(i)]));
    }
    // Serialize RNG draws by rank so outcome parity is well defined.
    if (ctx.rank() == 1) ctx.barrier();
    for (int i = 0; i < qubits; ++i) {
      outs.push_back(ctx.measure(q[static_cast<std::size_t>(i)]) ? 1 : 0);
    }
    if (ctx.rank() == 0) ctx.barrier();
    const std::lock_guard lock(mu);
    obs.outcomes[ctx.rank()] = std::move(outs);
    obs.values[ctx.rank()] = std::move(vals);
    obs.gates += gates;
    if (ctx.rank() == 0) obs.hosted_rank0 = true;
  });
  obs.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  return obs;
}

bool parity_ok(const Observation& a, const Observation& b,
               const char* what = "batched and unbatched") {
  if (a.outcomes != b.outcomes) {
    std::fprintf(stderr, "paritycheck: measurement outcomes diverged "
                         "between %s runs\n", what);
    return false;
  }
  for (const auto& [rank, vals] : a.values) {
    const auto it = b.values.find(rank);
    if (it == b.values.end() || it->second.size() != vals.size()) {
      std::fprintf(stderr, "paritycheck: observation layout diverged\n");
      return false;
    }
    for (std::size_t i = 0; i < vals.size(); ++i) {
      if (std::fabs(vals[i] - it->second[i]) > 1e-9) {
        std::fprintf(stderr,
                     "paritycheck: rank %d probability %zu diverged: "
                     "%.17g vs %.17g\n",
                     rank, i, vals[i], it->second[i]);
        return false;
      }
    }
  }
  return true;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--qubits n] [--steps n] [--json] [--paritycheck]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int qubits = 6;
  int steps = 60;
  bool json = false;
  bool paritycheck = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--qubits") == 0 && i + 1 < argc) {
      qubits = std::atoi(argv[++i]);
      if (qubits < 2 || qubits > 12) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--steps") == 0 && i + 1 < argc) {
      steps = std::atoi(argv[++i]);
      if (steps < 1 || steps > 100000) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--paritycheck") == 0) {
      paritycheck = true;
    } else {
      return usage(argv[0]);
    }
  }

  const bool remote =
      JobOptions::from_env().transport == TransportKind::kTcp;

  // Warm up the transport (hub connection, first-run barriers) so the
  // timed runs measure the op stream, not job spin-up. One warm-up per
  // backend: the distributed series pays replica construction once here
  // instead of inside its timed run.
  (void)run_trotter(0, 2, 1);
  (void)run_trotter(0, 2, 1, /*distributed=*/true);

  const Observation unbatched = run_trotter(0, qubits, steps);
  const Observation batched =
      run_trotter(sim::kDefaultSimBatchOps, qubits, steps);
  const Observation dist =
      run_trotter(sim::kDefaultSimBatchOps, qubits, steps,
                  /*distributed=*/true);
  const double speedup = batched.seconds > 0.0
                             ? unbatched.seconds / batched.seconds
                             : 0.0;
  const double dist_speedup =
      dist.seconds > 0.0 ? unbatched.seconds / dist.seconds : 0.0;

  if (paritycheck &&
      (!parity_ok(batched, unbatched) ||
       !parity_ok(dist, batched, "distributed and hub-backend"))) {
    return 1;
  }

  // One reporter per job: the process hosting rank 0.
  if (unbatched.hosted_rank0) {
    if (paritycheck) {
      std::fprintf(stderr, "paritycheck: batched, unbatched, and "
                           "distributed runs agree "
                           "(%d qubits/rank, %d steps)\n",
                   qubits, steps);
    }
    if (json) {
      std::printf(
          "{\n"
          "  \"benchmark\": \"BM_TrotterStep_remote\",\n"
          "  \"transport\": \"%s\",\n"
          "  \"qubits_per_rank\": %d,\n"
          "  \"steps\": %d,\n"
          "  \"local_gates\": %llu,\n"
          "  \"unbatched_ms\": %.3f,\n"
          "  \"batched_ms\": %.3f,\n"
          "  \"batched_speedup\": %.2f,\n"
          "  \"distributed_ms\": %.3f,\n"
          "  \"distributed_speedup\": %.2f\n"
          "}\n",
          remote ? "tcp" : "inproc", qubits, steps,
          static_cast<unsigned long long>(unbatched.gates),
          unbatched.seconds * 1e3, batched.seconds * 1e3, speedup,
          dist.seconds * 1e3, dist_speedup);
    } else {
      std::printf("BM_TrotterStep %s: unbatched %.3f ms, batched %.3f ms "
                  "(%.2fx), distributed %.3f ms (%.2fx), %llu local gates\n",
                  remote ? "tcp" : "inproc", unbatched.seconds * 1e3,
                  batched.seconds * 1e3, speedup, dist.seconds * 1e3,
                  dist_speedup,
                  static_cast<unsigned long long>(unbatched.gates));
    }
  }
  return 0;
}
