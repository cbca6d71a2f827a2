// Env-override contract for JobOptions::from_env(): an explicit QMPI_*
// override that is malformed, negative, zero where zero is meaningless,
// out of range, or structurally invalid (non-power-of-two shard count)
// must fail with a clear QmpiError instead of silently falling back — a
// typo in a benchmark invocation must never change what the user thinks
// they are measuring.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>

#include "core/context.hpp"
#include "core/env.hpp"
#include "service/job_service.hpp"
#include "sim/circuit_cache.hpp"
#include "sim/sharded_statevector.hpp"
#include "sim/thread_pool.hpp"

using qmpi::JobOptions;
using qmpi::QmpiError;
using qmpi::TransportKind;

namespace {

/// Scoped setter for the QMPI_* variables; clears every variable of the
/// settings table on entry and exit so tests cannot leak state into each
/// other (or inherit CI's).
class EnvGuard {
 public:
  EnvGuard() { clear(); }
  ~EnvGuard() { clear(); }

  void set(const char* name, const char* value) {
    ASSERT_EQ(setenv(name, value, /*overwrite=*/1), 0);
  }

 private:
  static void clear() {
    for (const qmpi::env::Setting& s : qmpi::env::settings()) {
      if (s.name != nullptr) unsetenv(s.name);
    }
  }
};

}  // namespace

TEST(EnvOptions, DefaultsWhenUnset) {
  EnvGuard env;
  const JobOptions opts = JobOptions::from_env();
  EXPECT_EQ(opts.seed, qmpi::sim::kDefaultSeed);
  EXPECT_EQ(opts.backend, qmpi::sim::BackendKind::kSerial);
  EXPECT_EQ(opts.num_shards, 1u);
  EXPECT_EQ(opts.sim_threads, 1u);
  EXPECT_EQ(opts.transport, TransportKind::kInproc);
}

TEST(EnvOptions, TransportParsesStrictly) {
  EnvGuard env;
  env.set("QMPI_TRANSPORT", "inproc");
  EXPECT_EQ(JobOptions::from_env().transport, TransportKind::kInproc);
  env.set("QMPI_TRANSPORT", "tcp");
  EXPECT_EQ(JobOptions::from_env().transport, TransportKind::kTcp);
  env.set("QMPI_TRANSPORT", "service");
  EXPECT_EQ(JobOptions::from_env().transport, TransportKind::kService);
  // Anything else must fail loud: a typo silently falling back to inproc
  // would run a "distributed" job single-process without a word.
  for (const char* bad : {"TCP", "socket", "tcp ", "", "inproc,tcp"}) {
    env.set("QMPI_TRANSPORT", bad);
    EXPECT_THROW(JobOptions::from_env(), QmpiError)
        << "QMPI_TRANSPORT=\"" << bad << "\"";
  }
}

TEST(EnvOptions, ValidOverridesParse) {
  EnvGuard env;
  env.set("QMPI_SEED", "42");
  env.set("QMPI_BACKEND", "sharded");
  env.set("QMPI_SHARDS", "4");
  env.set("QMPI_SIM_THREADS", "8");
  const JobOptions opts = JobOptions::from_env();
  EXPECT_EQ(opts.seed, 42u);
  EXPECT_EQ(opts.backend, qmpi::sim::BackendKind::kSharded);
  EXPECT_EQ(opts.num_shards, 4u);
  EXPECT_EQ(opts.sim_threads, 8u);
}

TEST(EnvOptions, HexSeedAndZeroSeedAllowed) {
  EnvGuard env;
  env.set("QMPI_SEED", "0x10");
  EXPECT_EQ(JobOptions::from_env().seed, 16u);
  env.set("QMPI_SEED", "0");
  EXPECT_EQ(JobOptions::from_env().seed, 0u);
}

TEST(EnvOptions, LeadingZeroIsDecimalNotOctal) {
  EnvGuard env;
  env.set("QMPI_SIM_THREADS", "010");  // must be 10, not octal 8
  EXPECT_EQ(JobOptions::from_env().sim_threads, 10u);
  env.set("QMPI_SHARDS", "010");  // 10 is not a power of two -> rejected
  EXPECT_THROW(JobOptions::from_env(), QmpiError);
}

TEST(EnvOptions, ShardsZeroRejected) {
  EnvGuard env;
  env.set("QMPI_SHARDS", "0");
  EXPECT_THROW(JobOptions::from_env(), QmpiError);
}

TEST(EnvOptions, ShardsNonPowerOfTwoRejected) {
  EnvGuard env;
  for (const char* bad : {"3", "6", "12", "100"}) {
    env.set("QMPI_SHARDS", bad);
    EXPECT_THROW(JobOptions::from_env(), QmpiError) << "QMPI_SHARDS=" << bad;
  }
  env.set("QMPI_SHARDS", "256");  // kMaxShards itself is fine
  EXPECT_EQ(JobOptions::from_env().num_shards, qmpi::sim::kMaxShards);
}

TEST(EnvOptions, ShardsBeyondCapRejected) {
  EnvGuard env;
  for (const char* bad : {"512", "4294967296", "18446744073709551616"}) {
    env.set("QMPI_SHARDS", bad);
    EXPECT_THROW(JobOptions::from_env(), QmpiError) << "QMPI_SHARDS=" << bad;
  }
}

TEST(EnvOptions, GarbageRejectedInsteadOfSilentFallback) {
  EnvGuard env;
  for (const char* var : {"QMPI_SEED", "QMPI_SHARDS", "QMPI_SIM_THREADS"}) {
    for (const char* bad : {"abc", "4x", "", " 4", "-1", "+2", "0x"}) {
      EnvGuard inner;
      inner.set(var, bad);
      EXPECT_THROW(JobOptions::from_env(), QmpiError)
          << var << "=\"" << bad << "\"";
    }
  }
}

TEST(EnvOptions, ThreadsZeroAndOverCapRejected) {
  EnvGuard env;
  env.set("QMPI_SIM_THREADS", "0");
  EXPECT_THROW(JobOptions::from_env(), QmpiError);
  env.set("QMPI_SIM_THREADS", "65");  // ThreadPool::kMaxLanes is 64
  EXPECT_THROW(JobOptions::from_env(), QmpiError);
  env.set("QMPI_SIM_THREADS", "64");
  EXPECT_EQ(JobOptions::from_env().sim_threads,
            qmpi::sim::ThreadPool::kMaxLanes);
}

TEST(EnvOptions, SimBatchDefaultsToOn) {
  EnvGuard env;
  EXPECT_EQ(JobOptions::from_env().sim_batch_ops,
            qmpi::sim::kDefaultSimBatchOps);
}

TEST(EnvOptions, SimBatchParsesOnOffAndSize) {
  EnvGuard env;
  env.set("QMPI_SIM_BATCH", "on");
  EXPECT_EQ(JobOptions::from_env().sim_batch_ops,
            qmpi::sim::kDefaultSimBatchOps);
  env.set("QMPI_SIM_BATCH", "off");
  EXPECT_EQ(JobOptions::from_env().sim_batch_ops, 0u);
  env.set("QMPI_SIM_BATCH", "256");
  EXPECT_EQ(JobOptions::from_env().sim_batch_ops, 256u);
  env.set("QMPI_SIM_BATCH", "1048576");  // kMaxSimBatchOps itself is fine
  EXPECT_EQ(JobOptions::from_env().sim_batch_ops, qmpi::sim::kMaxSimBatchOps);
}

TEST(EnvOptions, SimBatchRejectsGarbageZeroAndOverCap) {
  EnvGuard env;
  // "0" is rejected on purpose: disabling is spelled "off", so a typoed
  // size cannot silently turn the pipeline off.
  for (const char* bad :
       {"0", "ON", "true", "yes", "-1", "1k", "", " 8", "1048577"}) {
    env.set("QMPI_SIM_BATCH", bad);
    EXPECT_THROW(JobOptions::from_env(), QmpiError)
        << "QMPI_SIM_BATCH=\"" << bad << "\"";
  }
}

TEST(EnvOptions, SimdDefaultsToAuto) {
  EnvGuard env;
  EXPECT_EQ(JobOptions::from_env().simd, qmpi::sim::simd::Request::kAuto);
}

TEST(EnvOptions, SimdParsesStrictly) {
  EnvGuard env;
  env.set("QMPI_SIMD", "auto");
  EXPECT_EQ(JobOptions::from_env().simd, qmpi::sim::simd::Request::kAuto);
  env.set("QMPI_SIMD", "scalar");
  EXPECT_EQ(JobOptions::from_env().simd, qmpi::sim::simd::Request::kScalar);
  env.set("QMPI_SIMD", "avx2");
  EXPECT_EQ(JobOptions::from_env().simd, qmpi::sim::simd::Request::kAvx2);
  env.set("QMPI_SIMD", "avx512");
  EXPECT_EQ(JobOptions::from_env().simd, qmpi::sim::simd::Request::kAvx512);
  // Garbage must fail loud: a typo silently measuring the wrong kernels
  // would poison every perf number recorded from that run.
  for (const char* bad :
       {"AVX2", "sse", "avx", "avx-512", "avx512 ", "", "scalar,avx2",
        "none", "best"}) {
    env.set("QMPI_SIMD", bad);
    EXPECT_THROW(JobOptions::from_env(), QmpiError)
        << "QMPI_SIMD=\"" << bad << "\"";
  }
}

TEST(EnvOptions, SimdUnavailableIsaFallsBackWithNotice) {
  // Requesting an ISA the CPU lacks is not an error at resolve time — the
  // same job script must run on any node — but the fallback is recorded so
  // a JobReport can surface it. On hosts that do support the tier the
  // resolution is exact and the notice stays empty.
  namespace simd = qmpi::sim::simd;
  const simd::Selection sel = simd::resolve(simd::Request::kAvx512);
  if (simd::available(simd::Isa::kAvx512)) {
    EXPECT_EQ(sel.isa, simd::Isa::kAvx512);
    EXPECT_TRUE(sel.notice.empty());
  } else {
    EXPECT_LT(static_cast<int>(sel.isa),
              static_cast<int>(simd::Isa::kAvx512));
    EXPECT_NE(sel.notice.find("QMPI_SIMD=avx512"), std::string::npos);
    EXPECT_NE(sel.notice.find("fell back"), std::string::npos);
  }
  // kScalar and kAuto always resolve cleanly, on every CPU.
  EXPECT_EQ(simd::resolve(simd::Request::kScalar).isa, simd::Isa::kScalar);
  EXPECT_TRUE(simd::resolve(simd::Request::kAuto).notice.empty());
}

TEST(EnvOptions, SimdFallbackNoticeLandsInJobReport) {
  // End-to-end: run a tiny job requesting every tier. Whatever the host
  // CPU, the report's notices must match what resolve() promised — present
  // exactly when the request fell back, absent otherwise.
  namespace simd = qmpi::sim::simd;
  EnvGuard env;
  for (const char* tier : {"scalar", "avx2", "avx512"}) {
    env.set("QMPI_SIMD", tier);
    const JobOptions opts = JobOptions::from_env();
    const qmpi::JobReport report =
        qmpi::run(opts, [](qmpi::Context& ctx) { (void)ctx; });
    simd::Request req{};
    ASSERT_TRUE(simd::parse_request(tier, req));
    const simd::Selection sel = simd::resolve(req);
    if (sel.notice.empty()) {
      EXPECT_TRUE(report.notices.empty()) << "QMPI_SIMD=" << tier;
    } else {
      ASSERT_EQ(report.notices.size(), 1u) << "QMPI_SIMD=" << tier;
      EXPECT_EQ(report.notices[0], sel.notice);
    }
  }
}

TEST(EnvOptions, ServiceSettingsDefaultAndParse) {
  EnvGuard env;
  const JobOptions defaults = JobOptions::from_env();
  EXPECT_EQ(defaults.service_host, "127.0.0.1");
  EXPECT_EQ(defaults.service_port, 0u);
  EXPECT_EQ(defaults.service_qubits, 20u);
  env.set("QMPI_SERVICE_HOST", "10.0.0.7");
  env.set("QMPI_SERVICE_PORT", "4242");
  env.set("QMPI_SERVICE_QUBITS", "12");
  const JobOptions opts = JobOptions::from_env();
  EXPECT_EQ(opts.service_host, "10.0.0.7");
  EXPECT_EQ(opts.service_port, 4242u);
  EXPECT_EQ(opts.service_qubits, 12u);
}

TEST(EnvOptions, ServicePortAndQubitsRejectOutOfRange) {
  EnvGuard env;
  // Port 0 is "unset", so an explicit 0 is a mistake, not a default.
  for (const char* bad : {"0", "65536", "abc", "-1", ""}) {
    EnvGuard inner;
    inner.set("QMPI_SERVICE_PORT", bad);
    EXPECT_THROW(JobOptions::from_env(), QmpiError)
        << "QMPI_SERVICE_PORT=\"" << bad << "\"";
  }
  // 2^63 amplitudes cannot be indexed; 63+ qubits must fail at parse time.
  for (const char* bad : {"0", "63", "1000", "8q", ""}) {
    EnvGuard inner;
    inner.set("QMPI_SERVICE_QUBITS", bad);
    EXPECT_THROW(JobOptions::from_env(), QmpiError)
        << "QMPI_SERVICE_QUBITS=\"" << bad << "\"";
  }
  EnvGuard ok;
  ok.set("QMPI_SERVICE_QUBITS", "62");  // the ceiling itself is fine
  EXPECT_EQ(JobOptions::from_env().service_qubits, 62u);
  ok.set("QMPI_SERVICE_HOST", "");  // empty host is a mistake, not a default
  EXPECT_THROW(JobOptions::from_env(), QmpiError);
}

TEST(EnvOptions, CircuitCacheParsesOnOffAndSize) {
  EnvGuard env;
  EXPECT_EQ(JobOptions::from_env().circuit_cache, 0u);  // off by default
  env.set("QMPI_CIRCUIT_CACHE", "on");
  EXPECT_EQ(JobOptions::from_env().circuit_cache,
            qmpi::sim::kDefaultCircuitCacheEntries);
  env.set("QMPI_CIRCUIT_CACHE", "off");
  EXPECT_EQ(JobOptions::from_env().circuit_cache, 0u);
  env.set("QMPI_CIRCUIT_CACHE", "1024");
  EXPECT_EQ(JobOptions::from_env().circuit_cache, 1024u);
  // Same contract as QMPI_SIM_BATCH: disabling is spelled "off", so a
  // typoed size ("0") cannot silently disable the cache.
  for (const char* bad : {"0", "ON", "true", "-1", "1k", "", "16777217"}) {
    env.set("QMPI_CIRCUIT_CACHE", bad);
    EXPECT_THROW(JobOptions::from_env(), QmpiError)
        << "QMPI_CIRCUIT_CACHE=\"" << bad << "\"";
  }
}

TEST(EnvOptions, ServiceConfigFromEnvParsesStrictly) {
  namespace service = qmpi::service;
  EnvGuard env;
  const service::ServiceConfig defaults = service::ServiceConfig::from_env();
  EXPECT_EQ(defaults.max_sessions, 8u);
  EXPECT_EQ(defaults.mem_budget_bytes, 1ull << 30);
  EXPECT_EQ(defaults.circuit_cache_entries,
            qmpi::sim::kDefaultCircuitCacheEntries);

  env.set("QMPI_MAX_SESSIONS", "32");
  env.set("QMPI_MEM_BUDGET", "1048576");
  env.set("QMPI_CIRCUIT_CACHE", "off");
  env.set("QMPI_SERVICE_EXECUTORS", "2");
  const service::ServiceConfig cfg = service::ServiceConfig::from_env();
  EXPECT_EQ(cfg.max_sessions, 32u);
  EXPECT_EQ(cfg.mem_budget_bytes, 1048576u);
  EXPECT_EQ(cfg.circuit_cache_entries, 0u);
  EXPECT_EQ(cfg.executors, 2u);

  for (const char* bad : {"0", "abc", "-1", ""}) {
    EnvGuard inner;
    inner.set("QMPI_MAX_SESSIONS", bad);
    EXPECT_THROW(service::ServiceConfig::from_env(), QmpiError)
        << "QMPI_MAX_SESSIONS=\"" << bad << "\"";
    inner.set("QMPI_MAX_SESSIONS", "8");
    inner.set("QMPI_MEM_BUDGET", bad);
    EXPECT_THROW(service::ServiceConfig::from_env(), QmpiError)
        << "QMPI_MEM_BUDGET=\"" << bad << "\"";
  }
}

TEST(EnvOptions, UnknownBackendRejected) {
  EnvGuard env;
  env.set("QMPI_BACKEND", "quantum");
  EXPECT_THROW(JobOptions::from_env(), QmpiError);
}

TEST(EnvOptions, OverridesLayerOnTopOfBase) {
  EnvGuard env;
  JobOptions base;
  base.num_ranks = 7;
  base.sim_threads = 3;
  env.set("QMPI_SEED", "9");
  const JobOptions opts = JobOptions::from_env(base);
  EXPECT_EQ(opts.num_ranks, 7);       // untouched by env
  EXPECT_EQ(opts.sim_threads, 3u);    // no env override set
  EXPECT_EQ(opts.seed, 9u);           // env wins where set
}

namespace {

namespace env = qmpi::env;

/// Parses `text` as `s` reads it: from its variable through env::get when
/// `flag` is false, else as its launcher flag through env::parse.
std::uint64_t read_as(const env::Setting& s, bool flag, const char* text) {
  if (flag) return env::parse(s.var, text, s.flag);
  EnvGuard guard;
  guard.set(s.name, text);
  return env::get(s.var).value();
}

/// The decimal text of v + 1 (which may not fit in 64 bits).
std::string plus_one(std::uint64_t v) {
  if (v == std::numeric_limits<std::uint64_t>::max()) {
    return "18446744073709551616";
  }
  return std::to_string(v + 1);
}

}  // namespace

TEST(EnvTable, EveryNumberAndFlagHoldsItsBounds) {
  for (const env::Setting& s : env::settings()) {
    if (s.form != env::Form::kNumber && s.form != env::Form::kSwitch) {
      continue;
    }
    for (const bool flag : {false, true}) {
      if ((flag ? s.flag : s.name) == nullptr) continue;
      const std::string label = flag ? s.flag : s.name;
      const auto accepts = [&](const std::string& text, std::uint64_t want) {
        EXPECT_EQ(read_as(s, flag, text.c_str()), want)
            << label << "=\"" << text << "\"";
      };
      const auto rejects = [&](const std::string& text) {
        try {
          read_as(s, flag, text.c_str());
          ADD_FAILURE() << label << "=\"" << text << "\" was accepted";
        } catch (const QmpiError& e) {
          // The error names the variable or the flag, and the value.
          EXPECT_EQ(std::string(e.what()).rfind(label + "=\"" + text +
                                                    "\" is not ",
                                                0),
                    0u)
              << e.what();
        }
      };
      const std::string max = std::to_string(s.max);
      accepts(std::to_string(s.min), s.min);
      accepts(max, s.max);
      if (s.min > 0) rejects(std::to_string(s.min - 1));
      rejects(plus_one(s.max));
      rejects("+" + max);
      rejects(" " + max);
      rejects(max + " ");
      // Leading zeros are decimal, never octal.
      if (s.min <= 10 && 10 <= s.max && !s.power_of_two) {
        accepts("010", 10);
      } else {
        rejects("010");
      }
    }
  }
}

TEST(EnvTable, EveryWordAndAddressParses) {
  for (const env::Setting& s : env::settings()) {
    if (s.form == env::Form::kWord) {
      for (const env::Word& w : s.words) {
        EXPECT_EQ(env::parse(s.var, w.text), w.value) << s.name;
        const std::string padded = std::string(w.text) + " ";
        EXPECT_THROW(env::parse(s.var, padded.c_str()), QmpiError)
            << s.name << "=\"" << padded << "\"";
      }
      EXPECT_THROW(env::parse(s.var, ""), QmpiError) << s.name;
    } else if (s.form == env::Form::kAddress) {
      EXPECT_NO_THROW(env::parse(s.var, "10.0.0.7")) << s.name;
      EXPECT_THROW(env::parse(s.var, ""), QmpiError) << s.name;
    }
  }
}

TEST(EnvTable, BackendWordsMapToTheirKinds) {
  EnvGuard env;
  for (const auto kind :
       {qmpi::sim::BackendKind::kSerial, qmpi::sim::BackendKind::kSharded,
        qmpi::sim::BackendKind::kDistributed}) {
    env.set("QMPI_BACKEND", qmpi::sim::to_string(kind));
    EXPECT_EQ(JobOptions::from_env().backend, kind);
  }
}
