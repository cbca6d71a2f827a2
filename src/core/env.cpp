#include "core/env.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <string>
#include <string_view>

#include "classical/error.hpp"

namespace qmpi::env {

const char* get(const char* name) {
  // The process environment is read-only for the whole qmpi process
  // (nothing in the tree calls setenv), so the raw pointer stays valid.
  return std::getenv(name);
}

std::uint64_t parse_env_number(const char* name, const char* text,
                               bool allow_zero, std::uint64_t max_value) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) {
    throw QmpiError(std::string(name) + "=\"" + text + "\" is not a " +
                    (allow_zero ? "number" : "positive number"));
  }
  // Decimal unless explicitly 0x-prefixed: base 0 would silently read a
  // leading-zero value ("010") as octal 8.
  const bool hex = text[0] == '0' && (text[1] == 'x' || text[1] == 'X');
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, hex ? 16 : 10);
  if (end == text || *end != '\0') {
    throw QmpiError(std::string(name) + "=\"" + text + "\" is not a " +
                    (allow_zero ? "number" : "positive number"));
  }
  if (errno == ERANGE || v > max_value) {
    throw QmpiError(std::string(name) + "=\"" + text +
                    "\" is out of range (max " + std::to_string(max_value) +
                    ")");
  }
  if (!allow_zero && v == 0) {
    throw QmpiError(std::string(name) + "=\"" + text +
                    "\" must be a positive number");
  }
  return v;
}

std::uint64_t parse_env_count_switch(const char* name, const char* text,
                                     std::uint64_t on_value,
                                     std::uint64_t max_value) {
  const std::string_view t(text);
  if (t == "on") return on_value;
  if (t == "off") return 0;
  return parse_env_number(name, text, /*allow_zero=*/false, max_value);
}

}  // namespace qmpi::env
