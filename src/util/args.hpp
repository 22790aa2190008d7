#pragma once
// Tiny command-line argument parser for the CLI tool and examples.
// Supports --flag, --key value, --key=value, and positional arguments.

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace mvs::util {

class Args {
 public:
  /// Parse argv; `flags` lists option names (without --) that take no value
  /// — everything else with a -- prefix consumes the next token (or the
  /// =value suffix).
  static Args parse(int argc, const char* const* argv,
                    const std::vector<std::string>& flags = {});

  bool has(const std::string& name) const;
  std::optional<std::string> get(const std::string& name) const;
  std::string get_or(const std::string& name, std::string fallback) const;
  double number_or(const std::string& name, double fallback) const;
  int int_or(const std::string& name, int fallback) const;

  /// Every --option seen, by name (switches map to "").
  const std::map<std::string, std::string>& options() const {
    return options_;
  }
  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

/// Strict number parse: the whole text must be one finite number
/// ("12", "-0.5", "1e3"); nullopt otherwise ("", "abc", "8ms", "inf").
std::optional<double> parse_number(const std::string& text);

}  // namespace mvs::util
