#pragma once
// Strict parsing of numeric ECND_* environment knobs, in one place.
//
// strtoul/strtoull accept a leading '-' and negate it, so "-1" used to pass
// a `parsed >= 1` check as 2^64 - 1. These parsers accept only what the
// knob means: a positive integer is decimal digits and nothing else; a
// positive real is a whole strtod number that is finite and > 0. A knob that
// is set but malformed keeps its default and says so in one stderr line
// naming the knob and the value; stdout is never touched.
//
// Header-only so obs (which sits below core in the link order) uses the same
// parsers as core::parallel.

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>

namespace ecnd {

/// Digits only, value >= 1 and representable in 64 bits.
inline std::optional<std::uint64_t> parse_positive_int(const char* text) {
  if (text == nullptr || *text == '\0') return std::nullopt;
  std::uint64_t value = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(*p - '0');
    if (value > (UINT64_MAX - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  if (value == 0) return std::nullopt;
  return value;
}

/// The whole string is one strtod number, finite and > 0.
inline std::optional<double> parse_positive_real(const char* text) {
  if (text == nullptr || *text == '\0' ||
      std::isspace(static_cast<unsigned char>(*text))) {
    return std::nullopt;
  }
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (*end != '\0' || !std::isfinite(value) || value <= 0.0) {
    return std::nullopt;
  }
  return value;
}

namespace detail {
/// Parse env knob `name` with `parse`: nullopt when unset or malformed, and
/// one stderr line in the malformed case.
template <class Parse>
auto env_knob(const char* name, Parse parse, const char* want)
    -> decltype(parse(name)) {
  const char* text = std::getenv(name);
  if (text == nullptr) return std::nullopt;
  const auto value = parse(text);
  if (!value) {
    std::fprintf(stderr, "ecnd: ignoring %s=\"%s\" (want %s); using the default\n",
                 name, text, want);
  }
  return value;
}
}  // namespace detail

/// Env knob `name` as a positive integer (see parse_positive_int).
inline std::optional<std::uint64_t> env_positive_int(const char* name) {
  return detail::env_knob(name, parse_positive_int, "a positive integer");
}

/// Env knob `name` as a positive finite real (see parse_positive_real).
inline std::optional<double> env_positive_real(const char* name) {
  return detail::env_knob(name, parse_positive_real, "a positive number");
}

}  // namespace ecnd
