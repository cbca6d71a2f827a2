// qmpid_tenants: a JobService in this process with its default config,
// driven closed-loop by two tenant threads, one SessionClient connection
// each. A job opens a session, applies a layered H/Rz/CNOT circuit as
// one-way batched gates, reads probability_one, measures every qubit and
// closes. Half the jobs replay one of a few seeded shared templates (cache
// hits), half draw fresh seeded angles (compiles). Every job is checked
// against a solo replay on a bare serial Backend with the same seed.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common.hpp"
#include "service/job_service.hpp"
#include "service/session_client.hpp"
#include "sim/backend.hpp"
#include "sim/gates.hpp"
#include "sim/simd.hpp"

namespace perfbench {
namespace {

/// Two, not four: with four closed-loop tenants the service's four
/// executors, the tenants and the connection readers oversubscribe a 4-core
/// machine, and on a shared VM the run-to-run spread of every timing
/// exceeded 30%; two tenants leave headroom and stay within about 15%.
constexpr int kTenants = 2;
constexpr int kTemplates = 4;
/// peak_rss_mib is read when this many timed jobs have completed (or at the
/// end of a shorter run). The service keeps a few KiB per finished session
/// until it stops, and this driver keeps every job's record for the checks,
/// so a peak over the whole run would grow with throughput.
constexpr std::uint64_t kRssJobs = 1000;

struct Shape {
  unsigned qubits;
  unsigned layers;
};

struct Circuit {
  std::vector<double> angles;  ///< one Rz angle per qubit per layer
  std::uint64_t seed = 0;      ///< the session's measurement RNG seed
};

struct Output {
  std::vector<double> p1;
  std::vector<std::uint8_t> bits;
  bool operator==(const Output&) const = default;
};

Circuit make_circuit(SeedRng& rng, const Shape& shape) {
  Circuit c;
  for (unsigned i = 0; i < shape.qubits * shape.layers; ++i) {
    c.angles.push_back(rng.uniform(0.0, 2.0 * M_PI));
  }
  c.seed = rng.next();
  return c;
}

/// Per-call timings of a traced job.
struct CallTimes {
  std::vector<double> rtt_ms;      ///< reply-producing calls
  std::vector<double> enqueue_us;  ///< one-way gate calls
};

/// Issues the tenant circuit on `t` (a SessionClient or a bare Backend:
/// both spell the ops the same way) and returns the number of ops issued.
template <typename Target>
std::uint64_t play(Target& t, const Circuit& c, const Shape& shape,
                   Output& out, CallTimes* times) {
  const auto blocking = [&](const auto& fn) {
    const auto t0 = Clock::now();
    auto r = fn();
    if (times != nullptr) times->rtt_ms.push_back(seconds_since(t0) * 1e3);
    return r;
  };
  const auto oneway = [&](const auto& fn) {
    const auto t0 = Clock::now();
    fn();
    if (times != nullptr) {
      times->enqueue_us.push_back(seconds_since(t0) * 1e6);
    }
  };
  const unsigned n = shape.qubits;
  const auto q = blocking([&] { return t.allocate(n); });
  std::uint64_t ops = 1;
  for (unsigned layer = 0; layer < shape.layers; ++layer) {
    for (unsigned i = 0; i < n; ++i) {
      const auto rz = qmpi::sim::gate_rz(c.angles[layer * n + i]);
      oneway([&] { t.apply(qmpi::sim::gate_h(), q[i]); });
      oneway([&] { t.apply(rz, q[i]); });
      ops += 2;
    }
    for (unsigned i = 0; i + 1 < n; ++i) {
      oneway([&] { t.cnot(q[i], q[i + 1]); });
      ++ops;
    }
  }
  out.p1.resize(n);
  out.bits.resize(n);
  for (unsigned i = 0; i < n; ++i) {
    out.p1[i] = blocking([&] { return t.probability_one(q[i]); });
    ++ops;
  }
  for (unsigned i = 0; i < n; ++i) {
    out.bits[i] = blocking([&] { return t.measure(q[i]); }) ? 1 : 0;
    ++ops;
  }
  return ops;
}

/// One job as a tenant sees it: open (admission) to close.
struct JobRecord {
  int template_id = -1;  ///< -1: fresh circuit, kept below
  Circuit fresh;
  Output out;
  double latency_ms = 0.0;
  double admit_ms = 0.0;
  std::uint64_t ops = 0;
  bool threw = false;
  bool traced = false;
};

void run_job(std::uint16_t port, const Circuit& c, const Shape& shape,
             JobRecord& rec, CallTimes* times) {
  const auto t0 = Clock::now();
  try {
    qmpi::service::SessionConfig cfg;
    cfg.port = port;
    cfg.seed = c.seed;
    cfg.max_qubits = shape.qubits;
    qmpi::service::SessionClient session(cfg);
    rec.admit_ms = seconds_since(t0) * 1e3;
    rec.ops = play(session, c, shape, rec.out, times);
    const auto c0 = Clock::now();
    session.close();
    if (times != nullptr) times->rtt_ms.push_back(seconds_since(c0) * 1e3);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: tenant job failed: %s\n", e.what());
    rec.threw = true;
  }
  rec.latency_ms = seconds_since(t0) * 1e3;
}

/// Solo replay on a bare serial Backend; returns its wall time in s.
double replay(const Circuit& c, const Shape& shape, Output& out) {
  const auto t0 = Clock::now();
  const auto backend =
      qmpi::sim::make_backend(qmpi::sim::BackendKind::kSerial, c.seed);
  play(*backend, c, shape, out, nullptr);
  return seconds_since(t0);
}

}  // namespace

RunResult run_qmpid_tenants(const Args& args) {
  const Shape shape = args.smoke ? Shape{6, 2} : Shape{16, 4};
  SeedRng rng(args.seed);
  std::vector<Circuit> templates;
  for (int i = 0; i < kTemplates; ++i) {
    templates.push_back(make_circuit(rng, shape));
  }
  std::vector<std::uint64_t> tenant_seeds;
  for (int t = 0; t < kTenants; ++t) tenant_seeds.push_back(rng.next());

  RunResult out;
  qmpi::service::JobService service;  // default ServiceConfig
  service.start();
  {
    // Untimed warm-up: one template job per tenant connection.
    std::vector<std::thread> warm;
    std::vector<JobRecord> recs(kTenants);
    for (int t = 0; t < kTenants; ++t) {
      warm.emplace_back([&, t] {
        run_job(service.port(), templates[static_cast<std::size_t>(t)], shape,
                recs[static_cast<std::size_t>(t)], nullptr);
      });
    }
    for (auto& th : warm) th.join();
    for (const auto& r : recs) {
      if (r.threw) throw std::runtime_error("warm-up job failed");
    }
  }
  out.setup_s = seconds_since(args.start);
  if (args.setup_only) return out;

  // Closed loop: each tenant submits its next job when the last returns.
  // Even jobs replay a shared template, odd jobs are fresh circuits.
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<std::vector<JobRecord>> jobs(kTenants);
  std::vector<CallTimes> times(kTenants);
  qmpi::service::ServiceStats mid;
  const qmpi::service::ServiceStats before = service.stats();
  std::atomic<std::uint64_t> completed{0};
  std::atomic<double> rss_at_mark{0.0};
  const auto phase0 = Clock::now();
  std::vector<std::thread> tenants;
  for (int t = 0; t < kTenants; ++t) {
    tenants.emplace_back([&, t] {
      SeedRng trng(tenant_seeds[static_cast<std::size_t>(t)]);
      auto& mine = jobs[static_cast<std::size_t>(t)];
      for (std::uint64_t j = 0;; ++j) {
        const double now = seconds_since(phase0);
        if (now >= args.seconds) break;
        JobRecord rec;
        rec.traced = now >= untraced_s;
        if (j % 2 == 0) {
          rec.template_id = static_cast<int>((j / 2 + t) % kTemplates);
        } else {
          rec.fresh = make_circuit(trng, shape);
        }
        const Circuit& c =
            rec.template_id >= 0
                ? templates[static_cast<std::size_t>(rec.template_id)]
                : rec.fresh;
        run_job(service.port(), c, shape, rec,
                rec.traced ? &times[static_cast<std::size_t>(t)] : nullptr);
        mine.push_back(std::move(rec));
        if (++completed == kRssJobs) rss_at_mark = self_peak_rss_mib();
      }
    });
  }
  if (args.trace) {
    // Snapshot the counters between the halves for the traced deltas.
    while (seconds_since(phase0) < untraced_s) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    mid = service.stats();
  }
  for (auto& th : tenants) th.join();
  out.timed_wall_s = seconds_since(phase0);
  const qmpi::service::ServiceStats after = service.stats();
  service.stop();
  out.peak_rss_mib =
      completed >= kRssJobs ? rss_at_mark.load() : self_peak_rss_mib();

  // Checks, after the timed phase: solo replays (templates once each),
  // spread over one thread per core.
  std::vector<Output> template_out(kTemplates);
  std::vector<double> template_s(kTemplates);
  for (int i = 0; i < kTemplates; ++i) {
    template_s[static_cast<std::size_t>(i)] =
        replay(templates[static_cast<std::size_t>(i)], shape,
               template_out[static_cast<std::size_t>(i)]);
  }
  std::vector<JobRecord*> all;
  for (auto& v : jobs) {
    for (auto& r : v) all.push_back(&r);
  }
  std::vector<std::uint8_t> bad(all.size());
  std::vector<double> backend_s(all.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> checkers;
  for (unsigned t = 0; t < std::max(1u, std::thread::hardware_concurrency());
       ++t) {
    checkers.emplace_back([&] {
      Output expect;
      for (std::size_t i; (i = next++) < all.size();) {
        const JobRecord& r = *all[i];
        if (r.template_id >= 0) {
          const auto k = static_cast<std::size_t>(r.template_id);
          backend_s[i] = template_s[k];
          bad[i] = r.threw || !(r.out == template_out[k]);
        } else {
          backend_s[i] = replay(r.fresh, shape, expect);
          bad[i] = r.threw || !(r.out == expect);
        }
      }
    });
  }
  for (auto& th : checkers) th.join();

  std::uint64_t issued = 0;
  double traced_backend_s = 0.0;
  double traced_latency_s = 0.0;
  std::vector<double> admit_ms;
  std::vector<double> traced_ms;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const JobRecord& r = *all[i];
    issued += r.ops;
    out.failed += bad[i];
    if (r.traced) {
      traced_ms.push_back(r.latency_ms);
      admit_ms.push_back(r.admit_ms);
      traced_backend_s += backend_s[i];
      traced_latency_s += r.latency_ms * 1e-3;
    } else {
      out.job_ms.push_back(r.latency_ms);
    }
  }
  out.attempted = all.size();
  const std::uint64_t executed = after.ops_executed - before.ops_executed;
  out.run_checks_ok = executed == issued;
  out.notes.push_back(
      completed >= kRssJobs
          ? "peak_rss_mib: read when timed job " + std::to_string(kRssJobs) +
                " completed"
          : std::string("peak_rss_mib: read at the end of the run (fewer "
                        "than ") +
                std::to_string(kRssJobs) + " timed jobs)");
  out.notes.push_back(
      "job: " + std::to_string(shape.qubits) + "-qubit session, " +
      std::to_string(shape.layers) +
      " H/Rz/CNOT layers as one-way batched gates, probability_one and "
      "measure on every qubit; " +
      std::to_string(kTenants) + " closed-loop tenants; " +
      std::to_string(kTemplates) + " shared templates on even jobs");
  const std::uint64_t ws = kTenants * (std::uint64_t{16} << shape.qubits);
  out.notes.push_back("working set: " + std::to_string(kTenants) +
                      " sessions x 2^" + std::to_string(shape.qubits) +
                      " amps x 16 B = " + std::to_string(ws) + " B (" +
                      vs_caches(ws) + ")");
  const qmpi::service::ServiceConfig svc;
  const qmpi::service::SessionConfig ses;
  out.notes.push_back(
      "service options (defaults): max_sessions=" +
      std::to_string(svc.max_sessions) +
      " mem_budget=" + std::to_string(svc.mem_budget_bytes) +
      " circuit_cache=" + std::to_string(svc.circuit_cache_entries) +
      " executors=" + std::to_string(svc.executors) +
      " (0: one per hardware thread); session: backend=" +
      qmpi::sim::to_string(ses.backend) +
      " sim_threads=" + std::to_string(ses.sim_threads) +
      " max_batch_ops=" + std::to_string(ses.max_batch_ops));
  out.notes.push_back(std::string("simd executed: ") +
                      qmpi::sim::simd::to_string(qmpi::sim::simd::active()));
  out.notes.push_back("ops check: service executed " +
                      std::to_string(executed) + " ops, benchmark issued " +
                      std::to_string(issued) +
                      (out.run_checks_ok ? " (equal)" : " (MISMATCH)"));
  if (!args.trace) return out;

  std::vector<double> rtt;
  std::vector<double> enqueue;
  for (const auto& t : times) {
    rtt.insert(rtt.end(), t.rtt_ms.begin(), t.rtt_ms.end());
    enqueue.insert(enqueue.end(), t.enqueue_us.begin(), t.enqueue_us.end());
  }
  const double hits = static_cast<double>(after.cache_hits - mid.cache_hits);
  const double misses =
      static_cast<double>(after.cache_misses - mid.cache_misses);
  const double traced_p50 = quantile(traced_ms, 0.5);
  const double untraced_p50 = quantile(out.job_ms, 0.5);
  out.layer = {
      {"service.admit_ms_p50", quantile(admit_ms, 0.5), "ms"},
      {"service.admit_ms_p90", quantile(admit_ms, 0.9), "ms"},
      {"service.call_rtt_ms_p50", quantile(rtt, 0.5), "ms"},
      {"service.call_rtt_ms_p90", quantile(rtt, 0.9), "ms"},
      {"service.gate_enqueue_us_p50", quantile(enqueue, 0.5), "us"},
      {"service.cache_hits", hits, "count"},
      {"service.cache_misses", misses, "count"},
      {"service.cache_hit_ratio",
       hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"},
      {"service.ops_executed",
       static_cast<double>(after.ops_executed - mid.ops_executed), "count"},
      {"service.queued_admissions",
       static_cast<double>(after.queued_admissions - mid.queued_admissions),
       "count"},
      {"service.backend_s", traced_backend_s, "s"},
      {"service.job_latency_s", traced_latency_s, "s"},
      {"service.overhead_frac",
       traced_latency_s > 0 ? 1.0 - traced_backend_s / traced_latency_s : 0.0,
       "ratio"},
      {"trace.jobs", static_cast<double>(traced_ms.size()), "count"},
      {"trace.job_p50_ms", traced_p50, "ms"},
      {"trace.untraced_job_p50_ms", untraced_p50, "ms"},
      {"trace.overhead_ms", traced_p50 - untraced_p50, "ms"},
  };
  return out;
}

}  // namespace perfbench
