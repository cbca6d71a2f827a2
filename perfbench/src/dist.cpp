// dist_tcp18: the TFIM ring with 2 ranks x 9 spins through the shipped
// launcher, `qmpirun -n 2`, on the distributed backend (rank processes own
// the amplitude slices; the hub is control plane only). This process
// launches qmpirun with itself as the rank program (--rank-worker) and
// reads the rank processes' reports from the shared stdout pipe:
//
//   @ready    rank 0's process finished the warm-up job
//   @job <index> <ms> <epr> <bits> <step_s> <traced> <end_s>
//             one timed job, from rank 0's process (end_s: its end, in s
//             from the first timed job's start)
//   @fail <proc> <index>   a job whose probabilities missed the reference
//   @proc <proc> <rss_kib> <simd>   each rank process at exit
//
// Each line is one write(2) below PIPE_BUF, so lines never interleave.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "common.hpp"
#include "core/qmpi.hpp"
#include "sim/simd.hpp"
#include "tfim_job.hpp"

namespace perfbench {
namespace {

void emit(const std::string& line) {
  const std::string l = line + "\n";
  if (::write(STDOUT_FILENO, l.data(), l.size()) < 0) std::_Exit(3);
}

/// The pinned options of a rank process: tcp transport (qmpirun set the
/// hub address in the environment), distributed backend, all else default.
qmpi::JobOptions rank_options(const TfimSpec& s) {
  qmpi::JobOptions o = tfim_options(s);
  o.transport = qmpi::TransportKind::kTcp;
  o.backend = qmpi::sim::BackendKind::kDistributed;
  return o;
}

/// What rank 0 tells every rank at the end of a job: stop, or run another
/// untraced or traced job. Both processes must run the same jobs, so the
/// decision travels inside the job.
enum Next : int { kStop = 0, kUntraced = 1, kTraced = 2 };

}  // namespace

int dist_rank_worker(const Args& args) {
  const char* proc_text = std::getenv("QMPI_PROC_ID");
  const int proc = proc_text != nullptr ? std::atoi(proc_text) : -1;
  if (proc < 0 || std::getenv("QMPI_TCP_PORT") == nullptr) {
    std::fprintf(stderr, "perfbench: --rank-worker runs under qmpirun\n");
    return 2;
  }
  const TfimSpec spec = tfim_spec(args.workload, args.seed, args.smoke);
  const qmpi::JobOptions opts = rank_options(spec);
  const std::size_t m = spec.spins_per_rank;
  std::vector<double> probs(spec.spins());
  Clock::time_point phase0;
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;

  // One job; returns rank 0's decision about the next one.
  Next next = kUntraced;
  double step_s = 0.0;
  const auto job = [&](bool traced) {
    step_s = 0.0;
    return qmpi::run(opts, [&](qmpi::Context& ctx) {
      tfim_body(ctx, spec, probs.data(), [&](const auto& step) {
        if (!traced) return step();
        const auto t0 = Clock::now();
        step();
        step_s += seconds_since(t0);
      });
      int decision = kStop;
      if (ctx.rank() == 0) {
        const double t = seconds_since(phase0);
        decision = t >= args.seconds ? kStop
                   : t >= untraced_s ? kTraced
                                     : kUntraced;
      }
      next = static_cast<Next>(ctx.classical_comm().bcast(decision, 0));
    });
  };

  job(false);  // untimed warm-up
  if (proc == 0) emit("@ready");
  if (args.setup_only) return 0;

  const std::vector<double> ref = tfim_reference(spec);
  phase0 = Clock::now();
  next = kUntraced;  // the warm-up's own decision is meaningless
  for (std::uint64_t index = 0; next != kStop; ++index) {
    const bool traced = next == kTraced;
    const auto t0 = Clock::now();
    qmpi::ResourceTracker::Counts counts;
    try {
      counts = job(traced).total();
    } catch (const std::exception& e) {
      // A failed run leaves the two processes out of step; stop here and
      // let the launcher report the failure.
      std::fprintf(stderr, "perfbench: rank process %d: %s\n", proc, e.what());
      return 1;
    }
    const double ms = seconds_since(t0) * 1e3;
    if (tfim_error(probs, ref, static_cast<std::size_t>(proc) * m, m) >
        kTfimTolerance) {
      emit("@fail " + std::to_string(proc) + " " + std::to_string(index));
    }
    if (proc == 0) {
      char line[200];
      std::snprintf(line, sizeof line, "@job %llu %.6f %llu %llu %.9f %d %.6f",
                    static_cast<unsigned long long>(index), ms,
                    static_cast<unsigned long long>(counts.epr_pairs),
                    static_cast<unsigned long long>(counts.classical_bits),
                    step_s, traced ? 1 : 0, seconds_since(phase0));
      emit(line);
    }
  }
  emit("@proc " + std::to_string(proc) + " " +
       std::to_string(static_cast<long long>(self_peak_rss_mib() * 1024)) +
       " " + qmpi::sim::simd::to_string(qmpi::sim::simd::active()));
  return 0;
}

RunResult run_dist_tcp18(const Args& args) {
  const TfimSpec spec = tfim_spec(args.workload, args.seed, args.smoke);
  std::vector<std::string> argv_s = {PERFBENCH_QMPIRUN,
                                     "-n",
                                     "2",
                                     "/proc/self/exe",
                                     "--rank-worker",
                                     "--workload",
                                     args.workload,
                                     "--seed",
                                     std::to_string(args.seed),
                                     "--seconds",
                                     std::to_string(args.seconds),
                                     "--trace",
                                     args.trace ? "1" : "0"};
  // qmpirun execs the program path it is given, so hand it this binary.
  char self[4096];
  const ssize_t len = ::readlink("/proc/self/exe", self, sizeof self - 1);
  if (len <= 0) throw std::runtime_error("cannot resolve the perfbench path");
  argv_s[3].assign(self, static_cast<std::size_t>(len));
  if (args.smoke) argv_s.emplace_back("--smoke");
  if (args.setup_only) argv_s.emplace_back("--setup-only");

  // The launcher's stderr shares the pipe: its last line carries the hub
  // quantum-op count.
  RunResult out;
  std::vector<double> traced_ms;
  std::vector<double> traced_step_s;
  std::vector<std::uint64_t> failed_jobs;
  std::uint64_t epr_total = 0;
  std::uint64_t bits_total = 0;
  double rank_rss_kib = 0.0;
  long long hub_ops = -1;
  const int status = run_child(argv_s, true, [&](const std::string& line) {
    std::istringstream in(line);
    std::string tag;
    in >> tag;
    if (tag == "@ready") {
      out.setup_s = seconds_since(args.start);
    } else if (tag == "@job") {
      std::uint64_t index = 0;
      double ms = 0.0;
      std::uint64_t epr = 0;
      std::uint64_t bits = 0;
      double step = 0.0;
      int traced = 0;
      double end_s = 0.0;
      in >> index >> ms >> epr >> bits >> step >> traced >> end_s;
      epr_total += epr;
      bits_total += bits;
      if (epr != spec.expected_epr()) failed_jobs.push_back(index);
      if (traced) {
        traced_ms.push_back(ms);
        traced_step_s.push_back(step);
      } else {
        out.job_ms.push_back(ms);
        out.timed_wall_s = end_s;
      }
    } else if (tag == "@fail") {
      int proc = 0;
      std::uint64_t index = 0;
      in >> proc >> index;
      failed_jobs.push_back(index);
    } else if (tag == "@proc") {
      int proc = 0;
      double kib = 0.0;
      std::string simd;
      in >> proc >> kib >> simd;
      rank_rss_kib += kib;
      out.notes.push_back("rank process " + std::to_string(proc) +
                          ": simd executed " + simd);
    } else if (line.rfind("qmpirun: hub quantum ops:", 0) == 0) {
      hub_ops = std::atoll(line.c_str() + 25);
    } else if (line.rfind("qmpirun: hub on", 0) != 0) {
      std::fprintf(stderr, "%s\n", line.c_str());
    }
  });
  if (status != 0) {
    throw std::runtime_error("qmpirun exited with status " +
                             std::to_string(status));
  }
  if (args.setup_only) return out;

  std::sort(failed_jobs.begin(), failed_jobs.end());
  failed_jobs.erase(std::unique(failed_jobs.begin(), failed_jobs.end()),
                    failed_jobs.end());
  out.attempted = out.job_ms.size() + traced_ms.size();
  out.failed = failed_jobs.size();
  out.run_checks_ok = hub_ops == 0;
  out.peak_rss_mib = self_peak_rss_mib() + rank_rss_kib / 1024.0;
  out.epr_pairs_per_job =
      out.attempted ? static_cast<double>(epr_total) / out.attempted : 0.0;
  out.notes.push_back(
      "job: Listing 1 annealing, 2 rank processes x " +
      std::to_string(spec.spins_per_rank) + " spins, " +
      std::to_string(spec.steps) + " Trotter steps, dt " +
      std::to_string(spec.dt) +
      ", qmpirun -n 2, distributed backend (pinned in JobOptions, as "
      "QMPI_BACKEND=distributed), p2p and batching at their defaults");
  out.notes.push_back(working_set_note(spec) + ", over 2 rank processes");
  out.notes.push_back(options_note(rank_options(spec)));
  out.notes.push_back("hub check: qmpirun reported hub quantum ops: " +
                      std::to_string(hub_ops) + " (must be 0)");
  out.notes.push_back("epr check: sendq::tfim_step_epr(2) x " +
                      std::to_string(spec.steps) + " = " +
                      std::to_string(spec.expected_epr()));
  out.notes.push_back("peak_rss_mib: this process plus both rank processes "
                      "(the launcher itself is not counted)");
  if (!args.trace) return out;

  // tcp.overhead_s: the same job in-process on a 2-slice sharded backend.
  qmpi::JobOptions inproc = tfim_options(spec);
  inproc.backend = qmpi::sim::BackendKind::kSharded;
  inproc.num_shards = 2;
  const std::vector<double> ref = tfim_reference(spec);
  std::vector<double> probs(spec.spins());
  std::vector<double> inproc_ms;
  for (int i = 0; i < 6; ++i) {  // the first is an untimed warm-up
    const auto t0 = Clock::now();
    const auto report = qmpi::run(inproc, [&](qmpi::Context& ctx) {
      tfim_body(ctx, spec, probs.data(), [](const auto& step) { step(); });
    });
    if (i > 0) inproc_ms.push_back(seconds_since(t0) * 1e3);
    if (tfim_error(probs, ref, 0, probs.size()) > kTfimTolerance ||
        report.total().epr_pairs != spec.expected_epr()) {
      ++out.failed;
    }
  }
  const double untraced_p50 = quantile(out.job_ms, 0.5);
  const double inproc_s = quantile(inproc_ms, 0.5) * 1e-3;
  const double traced_p50 = quantile(traced_ms, 0.5);
  out.layer = {
      {"core.epr_pairs", out.epr_pairs_per_job, "pairs"},
      {"core.classical_bits",
       out.attempted ? static_cast<double>(bits_total) / out.attempted : 0.0,
       "bits"},
      {"tcp.step_s", mean(traced_step_s), "s"},
      {"tcp.inproc_job_s", inproc_s, "s"},
      {"tcp.overhead_s", untraced_p50 * 1e-3 - inproc_s, "s"},
      {"trace.jobs", static_cast<double>(traced_ms.size()), "count"},
      {"trace.job_p50_ms", traced_p50, "ms"},
      {"trace.untraced_job_p50_ms", untraced_p50, "ms"},
      {"trace.overhead_ms", traced_p50 - untraced_p50, "ms"},
  };
  return out;
}

}  // namespace perfbench
