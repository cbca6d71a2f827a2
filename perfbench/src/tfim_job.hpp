#pragma once

/// \file tfim_job.hpp
/// The paper's §7.2 TFIM ring job as the TFIM workloads run it, its
/// seeded inputs, and the reference every timed job is checked against.

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/tfim.hpp"
#include "common.hpp"
#include "core/context.hpp"
#include "sendq/analytic.hpp"
#include "sim/statevector.hpp"

namespace perfbench {

/// One TFIM ring workload: `ranks` x `spins_per_rank` spins, annealed over
/// `steps` first-order Trotter steps of length `dt`.
struct TfimSpec {
  int ranks = 2;
  unsigned spins_per_rank = 2;
  unsigned steps = 1;
  unsigned lanes = 1;             ///< sweep lanes (JobOptions::sim_threads)
  bool one_cpu = false;           ///< every thread of a job on one CPU, in turn
  double dt = 0.1;                ///< seeded
  std::uint64_t rng_seed = 1;     ///< measurement RNG seed, seeded

  unsigned spins() const {
    return static_cast<unsigned>(ranks) * spins_per_rank;
  }
  /// Listing 1's linear ramp J: 0 -> 1, g = 1 - J, sampled at the middle
  /// of each step so even a one-step job has a nonzero coupling.
  double j(unsigned step) const { return (step + 0.5) / steps; }
  double g(unsigned step) const { return 1.0 - j(step); }
  /// The SENDQ closed form: one EPR pair per ring edge per Trotter step.
  std::uint64_t expected_epr() const {
    qmpi::sendq::Params p;
    p.N = ranks;
    return qmpi::sendq::tfim_step_epr(p) * steps;
  }
};

/// Sizes of the TFIM workloads; `smoke` is the tiny size the benchmark's
/// own tests run. tfim_ring12 runs two ranks: with three, the rank threads
/// and the server thread fill a 4-core machine and on a shared VM its job
/// p50 and p90 spread 15-30% from run to run, against under 10% with two.
/// Its job is some 3000 synchronous SimServer calls, each a hand-off
/// between a rank thread and the server thread, so its time depends on
/// whether the scheduler puts them on one CPU or on two: it runs all of
/// them on one CPU, so that every run measures the same placement, and
/// takes the CPUs in turn from job to job, so that a run's median is not
/// the speed of the one CPU it happened to get.
inline TfimSpec tfim_spec(const std::string& workload, std::uint64_t seed,
                          bool smoke) {
  TfimSpec s;
  if (workload == "tfim_ring20") {
    s = {2, 10, 1, 2};
  } else if (workload == "tfim_ring12") {
    s = {2, 6, 40, 1, true};
  } else {  // dist_tcp18
    s = {2, 9, 1, 1};
  }
  if (smoke) {
    s.spins_per_rank = 3;
    s.steps = 2;
  }
  SeedRng rng(seed);
  s.dt = rng.uniform(0.05, 0.25);
  s.rng_seed = rng.next();
  return s;
}

/// Listing 1's annealing loop (apps::tfim_anneal) with the probabilities
/// read before the final measurement. Each rank writes its block of
/// `probs`; `step_hook(fn)` must call fn (tracing wraps the app span
/// around it).
template <typename StepHook>
void tfim_body(qmpi::Context& ctx, const TfimSpec& s, double* probs,
               StepHook&& step_hook) {
  const unsigned m = s.spins_per_rank;
  qmpi::QubitArray q = ctx.alloc_qmem(m);
  for (unsigned i = 0; i < m; ++i) ctx.h(q[i]);
  for (unsigned step = 0; step < s.steps; ++step) {
    step_hook([&] {
      qmpi::apps::tfim_time_evolution(ctx, s.j(step), s.g(step), s.dt, q, m,
                                      1);
    });
  }
  double* mine = probs + static_cast<std::size_t>(ctx.rank()) * m;
  for (unsigned i = 0; i < m; ++i) mine[i] = ctx.probability_one(q[i]);
  // A measurement collapses the spins it is correlated with, so every
  // rank reads before any rank measures.
  ctx.barrier();
  for (unsigned i = 0; i < m; ++i) {
    if (ctx.measure(q[i])) ctx.x(q[i]);
  }
  ctx.free_qmem(q, m);
}

/// probability_one of every spin after the same schedule on a bare
/// StateVector (apps::tfim_reference_evolution). Every job of a run
/// repeats one circuit, so this is computed once per run.
inline std::vector<double> tfim_reference(const TfimSpec& s) {
  qmpi::sim::StateVector sv(s.rng_seed);
  const std::vector<qmpi::sim::QubitId> spins = sv.allocate(s.spins());
  for (const auto q : spins) sv.h(q);
  for (unsigned step = 0; step < s.steps; ++step) {
    qmpi::apps::tfim_reference_evolution(sv, spins, s.j(step), s.g(step),
                                         s.dt, 1);
  }
  std::vector<double> p;
  for (const auto q : spins) p.push_back(sv.probability_one(q));
  return p;
}

/// Largest deviation of `probs[first, first + count)` from the reference.
inline double tfim_error(const std::vector<double>& probs,
                         const std::vector<double>& ref, std::size_t first,
                         std::size_t count) {
  double worst = 0.0;
  for (std::size_t i = first; i < first + count; ++i) {
    const double d = std::abs(probs[i] - ref[i]);
    worst = std::isnan(d) ? INFINITY : std::max(worst, d);
  }
  return worst;
}

inline constexpr double kTfimTolerance = 1e-9;

/// The pinned options of an in-process TFIM job. Ambient QMPI_* variables
/// are rejected up front, so nothing overrides these.
inline qmpi::JobOptions tfim_options(const TfimSpec& s) {
  qmpi::JobOptions o;
  o.num_ranks = s.ranks;
  o.seed = s.rng_seed;
  o.sim_threads = s.lanes;
  return o;
}

/// Every JobOptions field a QMPI_* variable could set, for the record.
inline std::string options_note(const qmpi::JobOptions& o) {
  static const char* kTransports[] = {"inproc", "tcp", "service"};
  static const char* kSimd[] = {"auto", "scalar", "avx2", "avx512"};
  return "job options: seed=" + std::to_string(o.seed) +
         " backend=" + qmpi::sim::to_string(o.backend) +
         " shards=" + std::to_string(o.num_shards) +
         " sim_threads=" + std::to_string(o.sim_threads) +
         " transport=" + kTransports[static_cast<int>(o.transport)] +
         " sim_batch=" + std::to_string(o.sim_batch_ops) +
         " p2p=" + (o.p2p ? "on" : "off") + " p2p_host=" + o.p2p_host +
         " simd=" + kSimd[static_cast<int>(o.simd)] +
         " circuit_cache=" + std::to_string(o.circuit_cache);
}

/// The state size: all spins plus one live EPR half per ring edge.
inline std::string working_set_note(const TfimSpec& s) {
  const unsigned qubits = s.spins() + static_cast<unsigned>(s.ranks);
  const std::uint64_t bytes = std::uint64_t{16} << qubits;
  return "working set: 2^" + std::to_string(qubits) + " amps x 16 B = " +
         std::to_string(bytes) + " B (" + vs_caches(bytes) + ")";
}

}  // namespace perfbench
