// perfbench: the repository benchmark. Runs one named workload for a set
// time, checks every timed job's outputs, and prints a record header and,
// as its last line, one JSON result:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--commit <id>] [--trace-out <file>]
//
// With --trace 0 the result carries the end-to-end metrics, with --trace 1
// the per-layer ones. perfbench/run.py builds this binary and runs it.

#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"

extern char** environ;

namespace perfbench {

double self_peak_rss_mib() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string vs_caches(std::uint64_t bytes) {
  const long l2 = ::sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l2 <= 0 || l3 <= 0) return "cache sizes unknown";
  char text[96];
  std::snprintf(text, sizeof text, "%.3g x per-core L2, %.3g x L3",
                static_cast<double>(bytes) / static_cast<double>(l2),
                static_cast<double>(bytes) / static_cast<double>(l3));
  return text;
}

int run_child(std::vector<std::string> argv, bool merge_stderr,
              const std::function<void(const std::string&)>& on_line) {
  std::vector<char*> args;
  for (auto& s : argv) args.push_back(s.data());
  args.push_back(nullptr);
  int fds[2];
  if (::pipe(fds) != 0) return -1;
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  if (merge_stderr) {
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDERR_FILENO);
  }
  posix_spawn_file_actions_addclose(&fa, fds[0]);
  posix_spawn_file_actions_addclose(&fa, fds[1]);
  pid_t pid = 0;
  const int rc =
      ::posix_spawn(&pid, args[0], &fa, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(fds[1]);
  std::string pending;
  char buf[4096];
  for (ssize_t n; rc == 0 && (n = ::read(fds[0], buf, sizeof buf)) > 0;) {
    pending.append(buf, static_cast<std::size_t>(n));
    for (std::size_t eol; (eol = pending.find('\n')) != std::string::npos;) {
      on_line(pending.substr(0, eol));
      pending.erase(0, eol + 1);
    }
  }
  ::close(fds[0]);
  if (rc != 0) return -1;
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

namespace {

struct Workload {
  const char* name;
  RunResult (*run)(const Args&);
};

const Workload kWorkloads[] = {
    {"tfim_ring20", run_tfim_inproc},
    {"tfim_ring12", run_tfim_inproc},
    {"qmpid_tenants", run_qmpid_tenants},
    {"dist_tcp18", run_dist_tcp18},
};

/// The per-layer metrics every traced run reports, in BENCHMARK.json's
/// order. A workload that does not exercise a layer reports it as 0.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"core.self_s", "s"},
    {"core.epr_pairs", "pairs"},
    {"core.classical_bits", "bits"},
    {"sim.client.calls.gate", "count"},
    {"sim.client.calls.observe", "count"},
    {"sim.client.calls.reshape", "count"},
    {"sim.client.wait_s", "s"},
    {"sim.client.call_us_p50", "us"},
    {"sim.backend.gate_s", "s"},
    {"sim.backend.observe_s", "s"},
    {"sim.backend.reshape_s", "s"},
    {"sim.backend.busy_s", "s"},
    {"sim.backend.busy_frac", "ratio"},
    {"sim.amps_peak", "amps"},
    {"service.admit_ms_p50", "ms"},
    {"service.admit_ms_p90", "ms"},
    {"service.call_rtt_ms_p50", "ms"},
    {"service.call_rtt_ms_p90", "ms"},
    {"service.gate_enqueue_us_p50", "us"},
    {"service.cache_hits", "count"},
    {"service.cache_misses", "count"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.ops_executed", "count"},
    {"service.queued_admissions", "count"},
    {"service.backend_s", "s"},
    {"service.job_latency_s", "s"},
    {"service.overhead_frac", "ratio"},
    {"tcp.step_s", "s"},
    {"tcp.inproc_job_s", "s"},
    {"tcp.overhead_s", "s"},
    {"trace.job_wall_s", "s"},
    {"trace.coverage_frac", "ratio"},
    {"trace.jobs", "count"},
    {"trace.job_p50_ms", "ms"},
    {"trace.untraced_job_p50_ms", "ms"},
    {"trace.overhead_ms", "ms"},
};

/// Set-up is repeated in this many fresh processes besides the run itself;
/// setup_s is the median of all of them.
constexpr int kExtraSetups = 4;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke] [--commit <id>] [--trace-out <f>]\n"
               "workloads: tfim_ring20 tfim_ring12 qmpid_tenants "
               "dist_tcp18\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--smoke") {
      a.smoke = true;
    } else if (k == "--setup-only") {
      a.setup_only = true;
    } else if (k == "--rank-worker") {
      a.rank_worker = true;
    } else if (!has_value) {
      return false;
    } else if (k == "--workload") {
      a.workload = argv[++i];
    } else if (k == "--seed") {
      char* end = nullptr;
      a.seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      char* end = nullptr;
      a.seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(a.seconds > 0.0) || a.seconds > 120.0) {
        return false;
      }
    } else if (k == "--trace") {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (k == "--commit") {
      a.commit = argv[++i];
    } else if (k == "--trace-out") {
      a.trace_out = argv[++i];
    } else {
      return false;
    }
  }
  for (const Workload& w : kWorkloads) {
    if (a.workload == w.name) return true;
  }
  return false;
}

/// JobOptions::from_env would let an ambient QMPI_* variable silently
/// change what a job runs, so the benchmark refuses to start with any set.
/// A rank process under qmpirun gets exactly the launcher's four.
bool ambient_qmpi_env_ok(bool rank_worker) {
  static const char* kLauncher[] = {"QMPI_TRANSPORT=", "QMPI_TCP_HOST=",
                                    "QMPI_TCP_PORT=", "QMPI_PROC_ID="};
  bool ok = true;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "QMPI_", 5) != 0) continue;
    bool allowed = false;
    for (const char* l : kLauncher) {
      allowed = allowed ||
                (rank_worker && std::strncmp(*e, l, std::strlen(l)) == 0);
    }
    if (!allowed) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set: QMPI_* overrides "
                   "change the workload (the benchmark pins its own "
                   "JobOptions)\n",
                   *e);
      ok = false;
    }
  }
  return ok;
}

/// Runs this binary again in --setup-only mode and returns the set-up
/// time it reports (negative on failure).
double fresh_setup(const char* self, const Args& a) {
  std::vector<std::string> argv = {self,
                                   "--setup-only",
                                   "--workload",
                                   a.workload,
                                   "--seed",
                                   std::to_string(a.seed),
                                   "--seconds",
                                   std::to_string(a.seconds),
                                   "--trace",
                                   a.trace ? "1" : "0"};
  if (a.smoke) argv.emplace_back("--smoke");
  double setup = -1.0;
  const int rc = run_child(argv, false, [&](const std::string& line) {
    if (line.rfind("@setup ", 0) == 0) {
      setup = std::strtod(line.c_str() + 7, nullptr);
    }
  });
  return rc == 0 ? setup : -1.0;
}

void print_metrics_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.10g", metrics[i].value);
    s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

/// Steal and total ticks of all CPUs from /proc/stat ({0, 0} if unread).
/// Steal is time the host ran something else while a CPU wanted to run.
std::pair<double, double> cpu_steal_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0.0, 0.0};
  double v[8] = {};
  const int n = std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0],
                            &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (n != 8) return {0.0, 0.0};
  double total = 0.0;
  for (const double x : v) total += x;
  return {v[7], total};
}

std::string cache_size(int name) {
  const long v = ::sysconf(name);
  return v > 0 ? std::to_string(v) + " B" : "unknown";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  args.start = Clock::now();
  if (!parse_args(argc, argv, args)) return usage();
  // Counted before a workload narrows its own affinity (tfim_ring12).
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int usable =
      ::sched_getaffinity(0, sizeof cpus, &cpus) == 0 ? CPU_COUNT(&cpus) : 0;
  if (!ambient_qmpi_env_ok(args.rank_worker)) return 2;
  if (args.rank_worker) return dist_rank_worker(args);

  // setup_s is a result metric of untraced runs only.
  std::vector<double> setups;
  if (!args.setup_only && !args.trace) {
    for (int i = 0; i < kExtraSetups; ++i) {
      const double s = fresh_setup(argv[0], args);
      if (s < 0.0) {
        std::fprintf(stderr, "perfbench: set-up run %d failed\n", i + 1);
        return 1;
      }
      setups.push_back(s);
    }
    args.start = Clock::now();
  }

  const auto steal0 = cpu_steal_ticks();
  RunResult r;
  try {
    for (const Workload& w : kWorkloads) {
      if (args.workload == w.name) r = w.run(args);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  if (args.setup_only) {
    std::printf("@setup %.9f\n", r.setup_s);
    return 0;
  }
  setups.push_back(r.setup_s);
  const auto steal1 = cpu_steal_ticks();

  if (!r.run_checks_ok) r.failed = r.attempted;
  const bool correct = r.attempted > 0 && r.failed == 0;
  const double p90 = quantile(r.job_ms, 0.9);
  std::size_t beyond_p90 = 0;
  for (const double ms : r.job_ms) beyond_p90 += ms > p90 ? 1 : 0;

  // Record header.
  std::printf("# perfbench %s seed=%llu seconds=%g trace=%d smoke=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.smoke ? 1 : 0);
  std::printf("# commit: %s\n", args.commit.c_str());
  std::printf("# nproc: %d usable, %u hardware threads\n", usable,
              std::thread::hardware_concurrency());
  std::printf("# cache: L2 %s per core, L3 %s\n",
              cache_size(_SC_LEVEL2_CACHE_SIZE).c_str(),
              cache_size(_SC_LEVEL3_CACHE_SIZE).c_str());
  std::printf("# QMPI_* environment: none set (any would be refused); "
              "JobOptions are pinned in the benchmark\n");
  for (const auto& n : r.notes) std::printf("# %s\n", n.c_str());
  std::printf("# setup_s samples:");
  for (const double s : setups) std::printf(" %.4f", s);
  std::printf("\n# jobs: %zu timed untraced, %llu attempted in all\n",
              r.job_ms.size(), static_cast<unsigned long long>(r.attempted));
  // Not a result metric: on a shared VM its run-to-run spread passes the
  // largest bound the gate allows (see README.md).
  std::printf("# job_p90_ms: %.6g (%zu samples beyond it)\n", p90,
              beyond_p90);
  std::printf("# fail_frac: %.6g (%llu failed / %llu attempted)\n",
              r.attempted ? static_cast<double>(r.failed) /
                                static_cast<double>(r.attempted)
                          : 1.0,
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  std::printf("# epr_pairs_per_job: %.6g\n", r.epr_pairs_per_job);
  const double ticks = steal1.second - steal0.second;
  std::printf("# cpu steal during the run: %.3g%% of all cpus' time\n",
              ticks > 0 ? 100.0 * (steal1.first - steal0.first) / ticks : 0.0);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"jobs_per_s",
         r.timed_wall_s > 0
             ? static_cast<double>(r.job_ms.size()) / r.timed_wall_s
             : 0.0,
         "1/s"},
        {"job_p50_ms", quantile(r.job_ms, 0.5), "ms"},
        {"setup_s", quantile(setups, 0.5), "s"},
        {"peak_rss_mib", r.peak_rss_mib, "MiB"},
    };
  } else {
    std::map<std::string, Metric> by_name;
    for (const Metric& m : r.layer) by_name[m.name] = m;
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = by_name.find(name);
      if (it == by_name.end()) {
        metrics.push_back({name, 0.0, unit});
        continue;
      }
      if (it->second.unit != unit) {
        std::fprintf(stderr, "perfbench: %s reported in %s, not %s\n", name,
                     it->second.unit.c_str(), unit);
        return 1;
      }
      metrics.push_back(it->second);
      by_name.erase(it);
    }
    if (!by_name.empty()) {
      std::fprintf(stderr, "perfbench: unlisted metric %s\n",
                   by_name.begin()->first.c_str());
      return 1;
    }
    for (const Metric& m : metrics) {
      std::printf("# %-28s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  print_metrics_json(correct, r.attempted, r.failed, metrics);
  return correct ? 0 : 1;
}
