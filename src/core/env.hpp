#pragma once

/// \file env.hpp
/// The settings table: every QMPI_* environment variable and launcher flag
/// qmpi reads is declared once (env.cpp) with its name, form, bounds and
/// qmpid/qmpirun flag, and every reader — JobOptions, ServiceConfig, the
/// tcp hub lookup, the SIMD dispatch, the lock-order validator, qmpid,
/// qmpirun and the bench binaries — parses through it. An explicit value
/// that does not parse fails loud with `NAME="value" is not …` (naming the
/// variable or the flag), so a typo never silently changes what the user
/// thinks they are measuring. `scripts/lint/run_lints.py` bans raw getenv
/// outside env.cpp (rule: env-chokepoint) and keeps README.md's
/// environment table row-for-row in step with this one (rule: env-docs).
/// Nothing here takes a qmpi::Mutex: the lock-order validator reads
/// QMPI_LOCK_CHECK inside the first lock operation.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace qmpi::env {

/// One row of the table each; kPort (qmpid/qmpirun --port) and kProcs
/// (qmpirun -n) are flags with no variable.
enum class Var : std::uint8_t {
  kSeed, kBackend, kShards, kSimThreads, kTransport, kSimBatch, kP2p,
  kP2pHost, kSimd, kCircuitCache, kServiceHost, kServicePort, kServiceQubits,
  kTcpHost, kTcpPort, kProcId, kMaxSessions, kMemBudget, kServiceExecutors,
  kLockCheck, kPort, kProcs
};

enum class Form : std::uint8_t {
  /// A number in [min, max]: decimal ("010" is ten, never octal eight),
  /// or hex when 0x-prefixed; a sign, whitespace or trailing text is
  /// rejected.
  kNumber,
  /// `on | off | <count>`: "on" yields `on`, "off" yields 0, and a count
  /// lies in [min, max] — "0" is rejected because disabling is "off".
  kSwitch,
  kWord,     ///< one of `words`, yielding that word's value
  kAddress,  ///< any non-empty text (set-but-empty is a typo, not a default)
};

struct Word {
  const char* text;
  std::uint64_t value;
};

struct Setting {
  Var var;
  const char* name;            ///< the QMPI_* variable, or nullptr
  const char* flag = nullptr;  ///< the qmpid / qmpirun flag, or nullptr
  Form form = Form::kNumber;
  std::uint64_t min = 0;  ///< kNumber / kSwitch bounds
  std::uint64_t max = 0;
  bool power_of_two = false;         ///< kNumber: also a power of two
  std::uint64_t on = 0;              ///< kSwitch: what "on" stands for
  std::span<const Word> words = {};  ///< kWord
  const char* noun = nullptr;        ///< kWord: what one word names
};

/// The whole table, in Var order.
std::span<const Setting> settings();
const Setting& setting(Var var);

/// The setting whose flag is `flag`, or nullptr.
const Setting* find_flag(std::string_view flag);

/// Parses `text` by `var`'s form: the number, the word's value, or 0 for
/// a non-empty address. Throws QmpiError `LABEL="text" is not …`; the
/// label defaults to the variable's name (launchers pass the flag).
std::uint64_t parse(Var var, const char* text, const char* label = nullptr);

/// kWord: the value of `text` in `var`'s word list, or nullopt.
std::optional<std::uint64_t> word_value(Var var, std::string_view text);

/// The parsed value of `var` from the environment, or nullopt when unset.
std::optional<std::uint64_t> get(Var var);

/// kAddress: the text of `var`, or nullptr when unset.
const char* get_address(Var var);

/// Overwrites `field` with `var`'s value when the variable is set.
template <typename T>
void assign(Var var, T& field) {
  if (const auto v = get(var)) field = static_cast<T>(*v);
}
inline void assign(Var var, std::string& field) {
  if (const char* text = get_address(var)) field = text;
}

}  // namespace qmpi::env
