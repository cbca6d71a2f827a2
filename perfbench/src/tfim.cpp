// tfim_ring20 / tfim_ring12: the §7.2 TFIM ring through in-process
// qmpi::run. Untraced jobs give the end-to-end numbers; a traced run
// assembles the same job from public pieces (classical::Runtime::run, one
// sim::SimServer, a Context per rank over a TimingSimClient) to split it
// into core, sim.server and sim.backend time.

#include <sched.h>

#include <cinttypes>
#include <cstdio>
#include <memory>

#include "classical/runtime.hpp"
#include "common.hpp"
#include "core/qmpi.hpp"
#include "sim/simd.hpp"
#include "spans.hpp"
#include "tfim_job.hpp"

namespace perfbench {
namespace {

/// Running sums over traced jobs (per-job means are taken at the end).
struct TraceTotals {
  std::uint64_t jobs = 0;
  std::vector<double> job_ms;
  double wall_s = 0.0;
  double core_self_s = 0.0;
  double client_wait_s = 0.0;
  double backend_s[4] = {};  ///< indexed by OpKind
  std::uint64_t calls[4] = {};
  std::vector<double> call_us;
  std::size_t peak_qubits = 0;
  std::uint64_t epr_pairs = 0;
  std::uint64_t classical_bits = 0;
  std::vector<std::vector<Span>> kept;  ///< spans of the first jobs, by rank
};

constexpr std::uint32_t kKeptJobs = 4;

/// Places each job's threads on one CPU, taking the usable CPUs in turn
/// from job to job. `pin_next` pins the calling thread, and so every thread
/// it starts from then on, to the next CPU and returns it (-1 if it could
/// not). The job's rank threads and server thread hand off to each other
/// thousands of times, so they share a CPU; rotating that CPU makes a run
/// sample every CPU of the machine, not whichever one it happened to get.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }
  int pin_next() {
    if (cpus_.empty()) return -1;
    const int cpu = cpus_[next_++ % cpus_.size()];
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return ::sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
  }
  std::size_t size() const { return cpus_.size(); }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// One traced job. Mirrors qmpi::run's in-process path (SIMD tier, one
/// SimServer per job, a Context per rank thread, a closing barrier) with
/// a TimingSimClient in place of the LocalSimClient.
bool traced_job(const TfimSpec& spec, const qmpi::JobOptions& opts,
                const std::vector<double>& ref, std::uint32_t job,
                TraceTotals& tot) {
  const std::size_t ranks = static_cast<std::size_t>(spec.ranks);
  std::vector<double> probs(spec.spins());
  std::vector<RankLog> logs(ranks);
  for (auto& log : logs) log.job = job;
  std::vector<std::size_t> peaks(ranks);
  std::vector<qmpi::ResourceTracker::Counts> counts(ranks);

  const std::int64_t t0 = now_ns();
  {
    qmpi::sim::simd::set_active(qmpi::sim::simd::resolve(opts.simd).isa);
    qmpi::sim::SimServer server(opts.seed, opts.sim_threads, opts.backend,
                                opts.num_shards);
    qmpi::classical::Runtime::run(
        spec.ranks, [&](qmpi::classical::Comm& world) {
          const auto r = static_cast<std::size_t>(world.rank());
          auto client = std::make_shared<TimingSimClient>(server, logs[r]);
          qmpi::Context ctx(world, client, nullptr);
          tfim_body(ctx, spec, probs.data(), [&](const auto& step) {
            logs[r].app("tfim_time_evolution", step);
          });
          ctx.classical_comm().barrier();
          counts[r] = ctx.tracker().total();
          peaks[r] = client->peak_qubits();
        });
  }
  const std::int64_t t1 = now_ns();

  std::vector<Interval> app;
  std::vector<Interval> client;
  std::int64_t backend_ns = 0;
  for (const auto& log : logs) {
    for (const Span& s : log.spans) {
      const auto k = static_cast<std::size_t>(s.kind);
      switch (s.layer) {
        case Layer::kApp:
          app.emplace_back(s.start_ns, s.end_ns);
          break;
        case Layer::kClient:
          client.emplace_back(s.start_ns, s.end_ns);
          ++tot.calls[k];
          tot.call_us.push_back(static_cast<double>(s.end_ns - s.start_ns) *
                                1e-3);
          break;
        case Layer::kBackend:
          tot.backend_s[k] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
          backend_ns += s.end_ns - s.start_ns;
          break;
      }
    }
  }
  // Wall-clock split of the job: backend spans never overlap (one server
  // thread) and each lies inside its client span, so the union of client
  // spans minus backend time is time spent in the dispatch hop; app time
  // not covered by any client span is core's own.
  const auto app_u = merged(std::move(app));
  const auto client_u = merged(std::move(client));
  tot.core_self_s +=
      static_cast<double>(length(app_u) - overlap(app_u, client_u)) * 1e-9;
  tot.client_wait_s +=
      static_cast<double>(length(client_u) - backend_ns) * 1e-9;
  tot.wall_s += static_cast<double>(t1 - t0) * 1e-9;
  tot.job_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
  ++tot.jobs;

  qmpi::ResourceTracker::Counts sum;
  for (const auto& c : counts) sum += c;
  tot.epr_pairs += sum.epr_pairs;
  tot.classical_bits += sum.classical_bits;
  for (const auto p : peaks) tot.peak_qubits = std::max(tot.peak_qubits, p);
  if (job < kKeptJobs) {
    for (auto& log : logs) tot.kept.push_back(std::move(log.spans));
  }
  return tfim_error(probs, ref, 0, probs.size()) <= kTfimTolerance &&
         sum.epr_pairs == spec.expected_epr();
}

/// Writes the kept spans as TSV: job, rank, layer, kind, name, parent,
/// start and end in ns from the job's first span.
void write_spans(const std::string& path, const TraceTotals& tot,
                 std::size_t ranks) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "job\trank\tlayer\tkind\tname\tparent\tstart_ns\tend_ns\n");
  static const char* kLayers[] = {"app", "client", "backend"};
  static const char* kKinds[] = {"-", "gate", "observe", "reshape"};
  for (std::size_t i = 0; i < tot.kept.size(); ++i) {
    const auto& spans = tot.kept[i];
    if (spans.empty()) continue;
    std::int64_t base = spans.front().start_ns;
    for (const auto& s : spans) base = std::min(base, s.start_ns);
    for (const Span& s : spans) {
      std::fprintf(f, "%u\t%zu\t%s\t%s\t%s\t%d\t%" PRId64 "\t%" PRId64 "\n",
                   s.job, i % ranks, kLayers[static_cast<int>(s.layer)],
                   kKinds[static_cast<int>(s.kind)], s.name, s.parent,
                   s.start_ns - base, s.end_ns - base);
    }
  }
  std::fclose(f);
}

}  // namespace

RunResult run_tfim_inproc(const Args& args) {
  const TfimSpec spec = tfim_spec(args.workload, args.seed, args.smoke);
  const qmpi::JobOptions opts = tfim_options(spec);
  // Before the warm-up job, so set-up runs on the same placement.
  CpuRotation cpus;
  bool pinned = !spec.one_cpu || cpus.pin_next() >= 0;
  std::vector<double> probs(spec.spins());
  const auto untraced_job = [&] {
    return qmpi::run(opts, [&](qmpi::Context& ctx) {
      tfim_body(ctx, spec, probs.data(), [](const auto& step) { step(); });
    });
  };

  RunResult out;
  const qmpi::JobReport warm = untraced_job();
  out.setup_s = seconds_since(args.start);
  if (args.setup_only) return out;

  const std::vector<double> ref = tfim_reference(spec);
  const std::uint64_t expected_epr = spec.expected_epr();
  out.notes.push_back(working_set_note(spec));
  out.notes.push_back(options_note(opts));
  out.notes.push_back(std::string("simd executed: ") +
                      qmpi::sim::simd::to_string(qmpi::sim::simd::active()));
  for (const auto& n : warm.notices) out.notes.push_back("job notice: " + n);
  out.notes.push_back("epr check: sendq::tfim_step_epr(" +
                      std::to_string(spec.ranks) + ") x " +
                      std::to_string(spec.steps) + " = " +
                      std::to_string(expected_epr));

  // Untraced timed jobs: the whole run, or its first half when traced.
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  std::uint64_t epr_total = 0;
  const auto phase0 = Clock::now();
  while (seconds_since(phase0) < untraced_s) {
    if (spec.one_cpu) pinned = cpus.pin_next() >= 0 && pinned;
    const auto t0 = Clock::now();
    bool ok = false;
    std::uint64_t epr = 0;
    try {
      epr = untraced_job().total().epr_pairs;
      ok = true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: job failed: %s\n", e.what());
    }
    out.job_ms.push_back(seconds_since(t0) * 1e3);
    epr_total += epr;
    // Output checks sit between jobs, outside every timed interval.
    const double err = tfim_error(probs, ref, 0, probs.size());
    ok = ok && epr == expected_epr && err <= kTfimTolerance;
    if (!ok && out.failed++ == 0) {
      std::fprintf(stderr,
                   "perfbench: job %zu failed its checks: %llu EPR pairs "
                   "(want %llu), probability error %.3g (limit %.0e)\n",
                   out.job_ms.size(), static_cast<unsigned long long>(epr),
                   static_cast<unsigned long long>(expected_epr), err,
                   kTfimTolerance);
    }
  }
  out.timed_wall_s = seconds_since(phase0);
  out.attempted = out.job_ms.size();
  out.notes.push_back(
      !spec.one_cpu ? std::string("cpu placement: left to the scheduler")
      : pinned ? "cpu placement: every thread of a job on one cpu, jobs "
                 "taking the " +
                     std::to_string(cpus.size()) + " usable cpus in turn"
               : std::string("cpu placement: pinning to one cpu failed for "
                             "some jobs, left to the scheduler"));
  out.peak_rss_mib = self_peak_rss_mib();
  out.epr_pairs_per_job =
      static_cast<double>(epr_total) / static_cast<double>(out.attempted);
  if (!args.trace) return out;

  TraceTotals tot;
  const auto phase1 = Clock::now();
  std::uint32_t job = 0;
  while (seconds_since(phase1) < args.seconds - untraced_s) {
    if (spec.one_cpu) cpus.pin_next();
    bool ok = false;
    try {
      ok = traced_job(spec, opts, ref, job++, tot);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: traced job failed: %s\n", e.what());
    }
    if (!ok) ++out.failed;
  }
  out.attempted += tot.jobs;
  write_spans(args.trace_out, tot, static_cast<std::size_t>(spec.ranks));

  const double n = static_cast<double>(std::max<std::uint64_t>(tot.jobs, 1));
  const auto k = [](OpKind kind) { return static_cast<std::size_t>(kind); };
  const double busy = tot.backend_s[k(OpKind::kGate)] +
                      tot.backend_s[k(OpKind::kObserve)] +
                      tot.backend_s[k(OpKind::kReshape)];
  const double traced_p50 = quantile(tot.job_ms, 0.5);
  const double untraced_p50 = quantile(out.job_ms, 0.5);
  out.layer = {
      {"core.self_s", tot.core_self_s / n, "s"},
      {"core.epr_pairs", static_cast<double>(tot.epr_pairs) / n, "pairs"},
      {"core.classical_bits", static_cast<double>(tot.classical_bits) / n,
       "bits"},
      {"sim.client.calls.gate", tot.calls[k(OpKind::kGate)] / n, "count"},
      {"sim.client.calls.observe", tot.calls[k(OpKind::kObserve)] / n,
       "count"},
      {"sim.client.calls.reshape", tot.calls[k(OpKind::kReshape)] / n,
       "count"},
      {"sim.client.wait_s", tot.client_wait_s / n, "s"},
      {"sim.client.call_us_p50", quantile(tot.call_us, 0.5), "us"},
      {"sim.backend.gate_s", tot.backend_s[k(OpKind::kGate)] / n, "s"},
      {"sim.backend.observe_s", tot.backend_s[k(OpKind::kObserve)] / n, "s"},
      {"sim.backend.reshape_s", tot.backend_s[k(OpKind::kReshape)] / n, "s"},
      {"sim.backend.busy_s", busy / n, "s"},
      {"sim.backend.busy_frac", tot.wall_s > 0 ? busy / tot.wall_s : 0.0,
       "ratio"},
      {"sim.amps_peak", static_cast<double>(std::uint64_t{1} << tot.peak_qubits),
       "amps"},
      {"trace.job_wall_s", tot.wall_s / n, "s"},
      {"trace.coverage_frac",
       tot.wall_s > 0 ? (tot.core_self_s + tot.client_wait_s + busy) / tot.wall_s
                      : 0.0,
       "ratio"},
      {"trace.jobs", static_cast<double>(tot.jobs), "count"},
      {"trace.job_p50_ms", traced_p50, "ms"},
      {"trace.untraced_job_p50_ms", untraced_p50, "ms"},
      {"trace.overhead_ms", traced_p50 - untraced_p50, "ms"},
  };
  return out;
}

}  // namespace perfbench
