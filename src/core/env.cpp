#include "core/env.hpp"

#include <bit>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <iterator>
#include <limits>

#include "classical/error.hpp"
#include "core/context.hpp"
#include "sim/circuit_cache.hpp"
#include "sim/sharded_statevector.hpp"
#include "sim/sim_client.hpp"
#include "sim/simd.hpp"
#include "sim/thread_pool.hpp"

namespace qmpi::env {

namespace {

template <typename E>
constexpr Word word(const char* text, E value) {
  return {text, static_cast<std::uint64_t>(value)};
}

constexpr Word kBackends[] = {
    word("serial", sim::BackendKind::kSerial),
    word("sharded", sim::BackendKind::kSharded),
    word("distributed", sim::BackendKind::kDistributed),
};
constexpr Word kTransports[] = {
    word("inproc", TransportKind::kInproc),
    word("tcp", TransportKind::kTcp),
    word("service", TransportKind::kService),
};
constexpr Word kSimdTiers[] = {
    word("auto", sim::simd::Request::kAuto),
    word("scalar", sim::simd::Request::kScalar),
    word("avx2", sim::simd::Request::kAvx2),
    word("avx512", sim::simd::Request::kAvx512),
};
constexpr Word kOnOff[] = {{"on", 1}, {"off", 0}};
constexpr Word kLockModes[] = {{"on", 1}, {"off", 0}, {"1", 1}, {"0", 0}};

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kMaxPort = 65535;

constexpr Setting number(Var var, const char* name, std::uint64_t min,
                         std::uint64_t max, const char* flag = nullptr) {
  return {.var = var, .name = name, .flag = flag, .min = min, .max = max};
}
constexpr Setting count_switch(Var var, const char* name, std::uint64_t max,
                               std::uint64_t on, const char* flag = nullptr) {
  return {.var = var, .name = name, .flag = flag, .form = Form::kSwitch,
          .min = 1, .max = max, .on = on};
}
constexpr Setting one_of(Var var, const char* name,
                         std::span<const Word> words, const char* noun) {
  return {.var = var, .name = name, .form = Form::kWord, .words = words,
          .noun = noun};
}
constexpr Setting address(Var var, const char* name) {
  return {.var = var, .name = name, .form = Form::kAddress};
}

constexpr Setting kTable[] = {
    number(Var::kSeed, "QMPI_SEED", 0, kU64Max),
    one_of(Var::kBackend, "QMPI_BACKEND", kBackends, "backend"),
    // A power of two here, not only at backend construction, so a bad
    // count fails on serial runs too instead of passing unnoticed.
    {.var = Var::kShards, .name = "QMPI_SHARDS", .min = 1,
     .max = sim::kMaxShards, .power_of_two = true},
    number(Var::kSimThreads, "QMPI_SIM_THREADS", 1,
           sim::ThreadPool::kMaxLanes),
    one_of(Var::kTransport, "QMPI_TRANSPORT", kTransports, "transport"),
    count_switch(Var::kSimBatch, "QMPI_SIM_BATCH", sim::kMaxSimBatchOps,
                 sim::kDefaultSimBatchOps),
    one_of(Var::kP2p, "QMPI_P2P", kOnOff, "peer-to-peer mode"),
    address(Var::kP2pHost, "QMPI_P2P_HOST"),
    one_of(Var::kSimd, "QMPI_SIMD", kSimdTiers, "SIMD tier"),
    count_switch(Var::kCircuitCache, "QMPI_CIRCUIT_CACHE",
                 sim::kMaxCircuitCacheEntries,
                 sim::kDefaultCircuitCacheEntries, "--cache"),
    address(Var::kServiceHost, "QMPI_SERVICE_HOST"),
    number(Var::kServicePort, "QMPI_SERVICE_PORT", 1, kMaxPort),
    number(Var::kServiceQubits, "QMPI_SERVICE_QUBITS", 1, 62),
    address(Var::kTcpHost, "QMPI_TCP_HOST"),
    number(Var::kTcpPort, "QMPI_TCP_PORT", 1, kMaxPort),
    number(Var::kProcId, "QMPI_PROC_ID", 0, kMaxPort),
    number(Var::kMaxSessions, "QMPI_MAX_SESSIONS", 1, 1u << 16,
           "--max-sessions"),
    number(Var::kMemBudget, "QMPI_MEM_BUDGET", 1, kU64Max, "--mem-budget"),
    number(Var::kServiceExecutors, "QMPI_SERVICE_EXECUTORS", 1, 256,
           "--executors"),
    one_of(Var::kLockCheck, "QMPI_LOCK_CHECK", kLockModes, "lock-check mode"),
    number(Var::kPort, nullptr, 0, kMaxPort, "--port"),
    number(Var::kProcs, nullptr, 1, 4096, "-n"),
};

static_assert(std::size(kTable) == static_cast<std::size_t>(Var::kProcs) + 1);
static_assert([] {
  for (std::size_t i = 0; i < std::size(kTable); ++i) {
    if (kTable[i].var != static_cast<Var>(i)) return false;
  }
  return true;
}(), "kTable rows must follow Var order");

[[noreturn]] void reject(const char* label, const char* text,
                         const std::string& expected) {
  throw QmpiError(std::string(label) + "=\"" + text + "\" is not " +
                  expected);
}

/// Strict unsigned parse: the text must start with a digit (no sign, no
/// whitespace), end with the number, and not overflow. Decimal unless
/// 0x-prefixed: base 0 would silently read "010" as octal 8.
std::optional<std::uint64_t> parse_number(const char* text) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return std::nullopt;
  const bool hex = text[0] == '0' && (text[1] == 'x' || text[1] == 'X');
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, hex ? 16 : 10);
  if (*end != '\0' || errno == ERANGE) return std::nullopt;
  return v;
}

/// The raw text of `s`'s variable, or nullptr when unset (or flag-only).
/// qmpi never mutates its environment, so the pointer stays valid.
const char* lookup(const Setting& s) {
  return s.name != nullptr ? std::getenv(s.name) : nullptr;
}

}  // namespace

std::span<const Setting> settings() { return kTable; }

const Setting& setting(Var var) {
  return kTable[static_cast<std::size_t>(var)];
}

const Setting* find_flag(std::string_view flag) {
  for (const Setting& s : kTable) {
    if (s.flag != nullptr && flag == s.flag) return &s;
  }
  return nullptr;
}

std::optional<std::uint64_t> word_value(Var var, std::string_view text) {
  for (const Word& w : setting(var).words) {
    if (text == w.text) return w.value;
  }
  return std::nullopt;
}

std::uint64_t parse(Var var, const char* text, const char* label) {
  const Setting& s = setting(var);
  if (label == nullptr) label = s.name;
  switch (s.form) {
    case Form::kWord: {
      if (const auto v = word_value(var, text)) return *v;
      std::string list;
      for (const Word& w : s.words) {
        list += (list.empty() ? "" : " | ") + std::string(w.text);
      }
      reject(label, text, std::string("a ") + s.noun + " (use " + list + ")");
    }
    case Form::kAddress:
      if (*text != '\0') return 0;
      reject(label, text, "an address");
    case Form::kSwitch:
      if (std::string_view(text) == "on") return s.on;
      if (std::string_view(text) == "off") return 0;
      [[fallthrough]];
    case Form::kNumber: {
      const auto v = parse_number(text);
      if (v && *v >= s.min && *v <= s.max &&
          (!s.power_of_two || std::has_single_bit(*v))) {
        return *v;
      }
      std::string expected = s.form == Form::kSwitch ? "on, off or a number"
                             : s.power_of_two        ? "a power of two"
                                                     : "a number";
      expected.append(" in [").append(std::to_string(s.min));
      expected.append(", ").append(std::to_string(s.max)).append("]");
      reject(label, text, expected);
    }
  }
  reject(label, text, "a known form");
}

std::optional<std::uint64_t> get(Var var) {
  const char* text = lookup(setting(var));
  if (text == nullptr) return std::nullopt;
  return parse(var, text);
}

const char* get_address(Var var) {
  const char* text = lookup(setting(var));
  if (text != nullptr) parse(var, text);
  return text;
}

}  // namespace qmpi::env
