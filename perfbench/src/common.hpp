#pragma once

/// \file common.hpp
/// Shared pieces of the perfbench driver: command-line arguments, the
/// seeded input generator, sample statistics, and the result every
/// workload hands back to main.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Parsed command line. `start` is taken first thing in main: set-up time
/// is measured from it.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;       ///< tiny sizes for the benchmark's own tests
  bool setup_only = false;  ///< stop after set-up and report its time
  bool rank_worker = false; ///< a rank process under qmpirun (dist_tcp18)
  std::string commit = "unknown";
  std::string trace_out;    ///< where traced runs write their spans
  Clock::time_point start;
};

/// splitmix64: the one deterministic generator every input is drawn from,
/// so a seed names the same angles, templates and RNG seeds everywhere.
struct SeedRng {
  std::uint64_t state;
  explicit SeedRng(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
};

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples; 0 when
/// there are none.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run hands back. Timings of timed jobs come from
/// untraced jobs only; `layer` is filled by traced runs.
struct RunResult {
  double setup_s = 0.0;
  std::vector<double> job_ms;  ///< wall time of each timed job
  double timed_wall_s = 0.0;   ///< first timed job start to last job end
  double peak_rss_mib = 0.0;
  std::uint64_t attempted = 0; ///< timed jobs, traced ones included
  std::uint64_t failed = 0;    ///< of those, jobs that failed a check or threw
  /// Checks on the run as a whole (e.g. the hub op count); a failed one
  /// fails every job of the run.
  bool run_checks_ok = true;
  double epr_pairs_per_job = 0.0;
  std::vector<std::string> notes;  ///< record-header lines
  std::vector<Metric> layer;       ///< per-layer metrics of a traced run
};

/// Peak resident set of this process so far, in MiB.
double self_peak_rss_mib();

/// `bytes` against this machine's per-core L2 and its L3, for the record.
std::string vs_caches(std::uint64_t bytes);

/// Runs `argv` (argv[0] is a path) with its stdout, and its stderr too when
/// `merge_stderr`, on a pipe; hands each output line to `on_line` as it
/// arrives and returns the child's exit code (-1 if it could not start or
/// did not exit normally).
int run_child(std::vector<std::string> argv, bool merge_stderr,
              const std::function<void(const std::string&)>& on_line);

/// Workload entry points (one translation unit each).
RunResult run_tfim_inproc(const Args& args);
RunResult run_qmpid_tenants(const Args& args);
RunResult run_dist_tcp18(const Args& args);
int dist_rank_worker(const Args& args);

}  // namespace perfbench
