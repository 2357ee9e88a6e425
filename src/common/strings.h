// String formatting helpers used by reports and loaders.
#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"

namespace imr {

std::vector<std::string> split(const std::string& s, char sep);
std::string join(const std::vector<std::string>& parts, const std::string& sep);

// Human-readable byte count ("1.2 MB").
std::string human_bytes(std::size_t bytes);

// Human-readable count ("1.5M", "310K").
std::string human_count(uint64_t n);

// Fixed-precision double.
std::string fmt_double(double v, int precision);

// Locale-independent strict double parse (std::from_chars): the whole string
// must be consumed and the decimal separator is always '.'. Returns false on
// empty input, trailing characters, or out-of-range values. This is the parse
// half of the set_double/to_chars round-trip guarantee — std::stod honors the
// global C locale, so under a comma-decimal locale "0.85" would stop at the
// '.' and silently parse as 0.
bool parse_double_strict(const std::string& s, double& out);

// Strict integer parse into T (std::from_chars): the whole string must be
// consumed and the value must fit T, so "3abc", a negative count for an
// unsigned T and 4294967299 for an int all fail, where std::stoll would stop
// at the first non-digit and a narrowing cast would wrap. Returns false on
// failure and leaves `out` unchanged.
template <typename T>
bool parse_int_strict(std::string_view s, T& out) {
  const char* last = s.data() + s.size();
  auto res = std::from_chars(s.data(), last, out);
  return res.ec == std::errc() && res.ptr == last;
}

// Parses a byte count: a positive integer with an optional k/m/g suffix
// (binary units). Rejects zero, negatives, trailing characters, and counts
// that overflow int64_t.
bool parse_byte_count(std::string_view s, int64_t& out);

// printf-style convenience.
std::string strprintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace imr
