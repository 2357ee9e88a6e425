// Minimal command-line flag parsing for the tools and examples:
// --key=value / --key value / --switch.
#pragma once

#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/strings.h"

namespace imr {

class Flags {
 public:
  // Parses argv; non-flag arguments are collected as positionals.
  Flags(int argc, char** argv);

  bool has(const std::string& name) const { return values_.count(name) > 0; }
  std::string get(const std::string& name, const std::string& dflt) const;
  // The whole value must parse as an integer that fits T.
  template <typename T>
  T get_int(const std::string& name, T dflt) const;
  double get_double(const std::string& name, double dflt) const;
  bool get_bool(const std::string& name) const;  // present => true

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

template <typename T>
T Flags::get_int(const std::string& name, T dflt) const {
  auto it = values_.find(name);
  if (it == values_.end()) return dflt;
  T v{};
  if (!parse_int_strict(it->second, v)) {
    throw ConfigError("flag --" + name + " expects an integer in [" +
                      std::to_string(std::numeric_limits<T>::min()) + ", " +
                      std::to_string(std::numeric_limits<T>::max()) +
                      "], got '" + it->second + "'");
  }
  return v;
}

}  // namespace imr
