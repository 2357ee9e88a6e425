#include "common/strings.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <sstream>

namespace imr {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      parts.push_back(s.substr(start));
      return parts;
    }
    parts.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string human_bytes(std::size_t bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  double v = static_cast<double>(bytes);
  int u = 0;
  while (v >= 1024.0 && u < 4) {
    v /= 1024.0;
    ++u;
  }
  char buf[48];
  if (u == 0) {
    std::snprintf(buf, sizeof(buf), "%.0f %s", v, units[u]);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f %s", v, units[u]);
  }
  return buf;
}

std::string human_count(uint64_t n) {
  char buf[48];
  if (n >= 1000000000ull) {
    std::snprintf(buf, sizeof(buf), "%.1fB", static_cast<double>(n) / 1e9);
  } else if (n >= 1000000ull) {
    std::snprintf(buf, sizeof(buf), "%.1fM", static_cast<double>(n) / 1e6);
  } else if (n >= 10000ull) {
    std::snprintf(buf, sizeof(buf), "%.0fK", static_cast<double>(n) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(n));
  }
  return buf;
}

std::string fmt_double(double v, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << v;
  return os.str();
}

bool parse_double_strict(const std::string& s, double& out) {
  const char* first = s.data();
  const char* last = first + s.size();
  auto res = std::from_chars(first, last, out);
  return res.ec == std::errc() && res.ptr == last;
}

bool parse_byte_count(std::string_view s, int64_t& out) {
  int64_t unit = 1;
  if (!s.empty()) {
    switch (std::tolower(static_cast<unsigned char>(s.back()))) {
      case 'k': unit = int64_t{1} << 10; break;
      case 'm': unit = int64_t{1} << 20; break;
      case 'g': unit = int64_t{1} << 30; break;
      default: break;
    }
  }
  if (unit > 1) s.remove_suffix(1);
  int64_t v = 0;
  if (!parse_int_strict(s, v) || v <= 0 ||
      v > std::numeric_limits<int64_t>::max() / unit) {
    return false;
  }
  out = v * unit;
  return true;
}

std::string strprintf(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  char buf[1024];
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

}  // namespace imr
