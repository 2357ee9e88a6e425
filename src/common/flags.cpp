#include "common/flags.h"

#include "common/strings.h"

namespace imr {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";
    }
  }
}

std::string Flags::get(const std::string& name, const std::string& dflt) const {
  auto it = values_.find(name);
  return it == values_.end() ? dflt : it->second;
}

double Flags::get_double(const std::string& name, double dflt) const {
  auto it = values_.find(name);
  if (it == values_.end()) return dflt;
  double v;
  if (!parse_double_strict(it->second, v)) {
    throw ConfigError("flag --" + name + " expects a number, got '" +
                      it->second + "'");
  }
  return v;
}

bool Flags::get_bool(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) return false;
  return it->second != "false" && it->second != "0";
}

}  // namespace imr
