#include "util/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <sstream>

#include "util/check.hpp"

namespace estclust {

namespace {
bool looks_like_value(const std::string& s) {
  // "--x -3" must treat -3 as a value, not a flag.
  if (s.rfind("--", 0) != 0) return true;
  return s.size() > 2 && (std::isdigit(static_cast<unsigned char>(s[2])) != 0);
}

/// Parses all of `text` as a T; a bad value names the flag it came from.
template <typename T>
T parse_value(const std::string& name, const std::string& text,
              const char* expected) {
  T out{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  ESTCLUST_CHECK_MSG(ec == std::errc() && ptr == end,
                     "--" << name << " expects " << expected << " (got '"
                          << text << "')");
  return out;
}
}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0 && arg.size() > 2 &&
        !std::isdigit(static_cast<unsigned char>(arg[2]))) {
      std::string name = arg.substr(2);
      auto eq = name.find('=');
      if (eq != std::string::npos) {
        const std::string value = name.substr(eq + 1);
        name.resize(eq);
        values_[name] = value;
      } else if (i + 1 < argc && looks_like_value(argv[i + 1])) {
        values_[name] = argv[++i];
        next_word_values_.emplace_back(name, argv[i]);
      } else {
        flags_.push_back(name);
      }
      ++times_given_[name];
    } else {
      positionals_.push_back(arg);
    }
  }
}

bool CliArgs::has_flag(const std::string& name) const {
  return std::find(flags_.begin(), flags_.end(), name) != flags_.end() ||
         values_.count(name) > 0;
}

std::optional<std::string> CliArgs::get(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string CliArgs::get_string(const std::string& name,
                                const std::string& fallback) const {
  return get(name).value_or(fallback);
}

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t fallback) const {
  auto v = get(name);
  if (!v) return fallback;
  return parse_value<std::int64_t>(name, *v, "an integer");
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  auto v = get(name);
  if (!v) return fallback;
  return parse_value<double>(name, *v, "a number");
}

void CliArgs::reject_unknown(std::span<const std::string_view> known,
                             std::string_view context,
                             std::span<const std::string_view> bare) const {
  std::vector<std::string> unknown;
  const auto check = [&](const std::string& name) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      unknown.push_back("--" + name);
    }
  };
  for (const auto& name : flags_) check(name);
  for (const auto& [name, value] : values_) check(name);
  std::ostringstream msg;
  if (!unknown.empty()) {
    msg << "unknown flag" << (unknown.size() > 1 ? "s" : "");
    for (std::size_t i = 0; i < unknown.size(); ++i) {
      msg << (i == 0 ? " " : ", ") << unknown[i];
    }
    msg << " (accepted:";
    for (const auto& name : known) msg << " --" << name;
    msg << ")";
  }
  for (const auto& [name, times] : times_given_) {
    if (times > 1) {
      msg << (msg.tellp() > 0 ? "; " : "") << "--" << name << " given "
          << times << " times";
    }
  }
  const auto unexpected = [&](const std::string& arg) {
    msg << (msg.tellp() > 0 ? "; " : "") << "unexpected argument '" << arg
        << "'";
  };
  for (const auto& arg : positionals_) unexpected(arg);
  for (const auto& [name, word] : next_word_values_) {
    if (std::find(bare.begin(), bare.end(), name) != bare.end()) {
      unexpected(word);
    }
  }
  ESTCLUST_CHECK_MSG(msg.tellp() == 0, context << ": " << msg.str());
}

std::int64_t CliArgs::env_int(const std::string& name, std::int64_t fallback) {
  const char* v = std::getenv(name.c_str());
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoll(v, nullptr, 10);
}

}  // namespace estclust
