#include "util/args.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>

namespace mvs::util {

Args Args::parse(int argc, const char* const* argv,
                 const std::vector<std::string>& flags) {
  Args out;
  if (argc > 0) out.program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      out.positional_.push_back(std::move(token));
      continue;
    }
    token = token.substr(2);
    const std::size_t eq = token.find('=');
    if (eq != std::string::npos) {
      out.options_[token.substr(0, eq)] = token.substr(eq + 1);
      continue;
    }
    const bool is_flag =
        std::find(flags.begin(), flags.end(), token) != flags.end();
    if (is_flag || i + 1 >= argc) {
      out.options_[token] = "";
    } else {
      out.options_[token] = argv[++i];
    }
  }
  return out;
}

bool Args::has(const std::string& name) const {
  return options_.count(name) > 0;
}

std::optional<std::string> Args::get(const std::string& name) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return std::nullopt;
  return it->second;
}

std::string Args::get_or(const std::string& name, std::string fallback) const {
  const auto v = get(name);
  return v ? *v : fallback;
}

double Args::number_or(const std::string& name, double fallback) const {
  const auto v = get(name);
  if (!v || v->empty()) return fallback;
  return std::strtod(v->c_str(), nullptr);
}

int Args::int_or(const std::string& name, int fallback) const {
  return static_cast<int>(number_or(name, fallback));
}

std::optional<double> parse_number(const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) ||
      end != text.c_str() + text.size() || !std::isfinite(v))
    return std::nullopt;
  return v;
}

}  // namespace mvs::util
