// Minimal command-line parsing for examples and bench binaries.
//
// Supports "--name value" and "--flag" forms plus environment-variable
// fallbacks so benches can be scaled via ESTCLUST_BENCH_SCALE etc.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
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

  /// Throws CheckError, prefixed with `context` (the command), naming
  /// every flag outside `known`, every flag given more than once, every
  /// positional argument, and every word that the parser took as the value
  /// of a flag in `bare` (flags that take no value, or only as --flag=V).
  /// So a misspelt, repeated or stray argument fails instead of running
  /// with a default or a silently dropped value. Parsing itself accepts
  /// anything; a tool calls this to opt in.
  void reject_unknown(std::span<const std::string_view> known,
                      std::string_view context,
                      std::span<const std::string_view> bare = {}) const;
  const std::string& program() const { return program_; }

  /// Reads an integer environment variable, else returns fallback.
  static std::int64_t env_int(const std::string& name, std::int64_t fallback);

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> flags_;
  std::vector<std::string> positionals_;
  std::map<std::string, int> times_given_;
  /// (flag, word) for each value taken from the word after its flag.
  std::vector<std::pair<std::string, std::string>> next_word_values_;
};

}  // namespace estclust
