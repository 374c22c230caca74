// Minimal command-line parsing for examples and bench binaries.
//
// Supports "--name value" and "--flag" forms plus environment-variable
// fallbacks so benches can be scaled via ESTCLUST_BENCH_SCALE etc.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace estclust {

class CliArgs {
 public:
  /// Parses argv. Unknown arguments are collected as positionals.
  /// Throws CheckError on a trailing "--name" with no value.
  CliArgs(int argc, const char* const* argv);

  bool has_flag(const std::string& name) const;
  std::optional<std::string> get(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  /// Parse the whole value; throw CheckError naming the flag and the value
  /// when it is not a number ("abc", "12x", out of range).
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;

  const std::vector<std::string>& positionals() const { return positionals_; }
  const std::string& program() const { return program_; }

  /// Reads an integer environment variable, else returns fallback.
  static std::int64_t env_int(const std::string& name, std::int64_t fallback);

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> flags_;
  std::vector<std::string> positionals_;
};

}  // namespace estclust
