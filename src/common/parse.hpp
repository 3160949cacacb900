// Strict numeric parsing for configuration values.
//
// Every key=value surface in the system (ess::parse_run_spec,
// synth::parse_catalog_spec, the essns_cli flag handlers) must reject
// malformed numbers loudly rather than truncate them the way the raw strto*
// family does. These helpers parse the *whole* string or return nullopt —
// leading whitespace (which std::stoi/stod/stoull silently skip before the
// consumed-character count starts), trailing junk, overflow, hex-float
// spellings, non-finite reals ("nan", "inf"), and (for the unsigned parser)
// sign prefixes all fail — leaving the caller to pick its error channel
// (throw vs exit).
#pragma once

#include <cctype>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>

namespace essns {
namespace detail {

/// std::stoi/stod/stoull skip leading whitespace before `used` starts
/// counting, so " 42" would pass the whole-string check. Reject it here.
inline bool has_leading_space(const std::string& text) {
  return !text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front())) != 0;
}

}  // namespace detail

/// Whole-string int, via std::stoi; nullopt on junk, whitespace or overflow.
inline std::optional<int> parse_int(const std::string& text) {
  if (text.empty() || detail::has_leading_space(text)) return std::nullopt;
  std::size_t used = 0;
  int v = 0;
  try {
    v = std::stoi(text, &used);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (used != text.size()) return std::nullopt;
  return v;
}

/// Whole-string finite double, via std::stod; nullopt on junk, whitespace
/// or overflow. Hex-float spellings ("0x10", "+0X1p4") and the non-finite
/// spellings ("nan", "inf", "infinity", any case or sign) are rejected even
/// though std::stod accepts them — no config surface means base-16 reals,
/// and a NaN threshold or step length silently disables the comparisons
/// that use it.
inline std::optional<double> parse_double(const std::string& text) {
  if (text.empty() || detail::has_leading_space(text)) return std::nullopt;
  for (const char ch : text)
    if (ch == 'x' || ch == 'X') return std::nullopt;
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(text, &used);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (used != text.size() || !std::isfinite(v)) return std::nullopt;
  return v;
}

/// Whole-string uint64 (full 64-bit range — seeds round-trip exactly);
/// nullopt on junk, whitespace, overflow, or a sign prefix.
inline std::optional<std::uint64_t> parse_uint64(const std::string& text) {
  if (text.empty() || detail::has_leading_space(text) || text.front() == '-' ||
      text.front() == '+')
    return std::nullopt;
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &used);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (used != text.size()) return std::nullopt;
  return static_cast<std::uint64_t>(v);
}

}  // namespace essns
