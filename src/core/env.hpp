#pragma once

/// \file env.hpp
/// The QMPI_* environment contract: one lookup chokepoint and one strict
/// parser, shared by every layer that reads overrides (core/context.cpp
/// for job options, service/job_service.cpp for qmpid's tenancy knobs,
/// apps for CLI defaults). One parser means one failure mode: an explicit
/// override that doesn't parse fails loud with the variable name,
/// everywhere. `scripts/lint/run_lints.py` (rule: env-chokepoint) bans
/// raw getenv elsewhere in src/, and (rule: env-docs) requires every
/// QMPI_* variable named here or in context.cpp to appear in README.md's
/// environment table.

#include <cstdint>
#include <limits>

namespace qmpi::env {

/// The process environment lookup every QMPI_* read must route through.
/// Returns nullptr when unset; the pointed-to text is owned by the
/// process environment and stays valid (qmpi never mutates it).
const char* get(const char* name);

/// Strict numeric parse for a QMPI_* override: an explicit override that
/// doesn't parse, wraps negative, or overflows must fail loud
/// (classical::QmpiError naming `name`), or a typo silently changes what
/// the user thinks they are measuring. strtoull alone is not strict
/// enough — it eats leading whitespace, wraps "-1" to 2^64-1, and
/// saturates out-of-range input — so anything that does not start with a
/// digit is rejected and errno is checked explicitly. Decimal unless
/// explicitly 0x-prefixed (base 0 would silently read "010" as octal 8).
std::uint64_t parse_env_number(
    const char* name, const char* text, bool allow_zero,
    std::uint64_t max_value = std::numeric_limits<std::uint64_t>::max());

/// Parses an `on | off | <count>` override (QMPI_SIM_BATCH,
/// QMPI_CIRCUIT_CACHE): "on" yields `on_value`, "off" yields 0, and
/// anything else must be a positive number <= `max_value` — "0" is
/// rejected on purpose, because disabling is spelled "off".
std::uint64_t parse_env_count_switch(const char* name, const char* text,
                                     std::uint64_t on_value,
                                     std::uint64_t max_value);

}  // namespace qmpi::env
