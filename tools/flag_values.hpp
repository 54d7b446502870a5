// Strict numeric flag values for the CLI tools. A value is accepted only
// when the whole argument is a number: no sign on counts, no leading
// space, no trailing junk, nothing out of range. Anything else prints a
// diagnostic plus the tool's usage and exits 1, so a typo like
// `--samples abc` is a rejected invocation rather than an uncaught
// std::invalid_argument from std::stoul.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <system_error>

namespace lcsf::tools {

class FlagValues {
 public:
  FlagValues(const char* tool, void (*print_usage)(std::FILE*))
      : tool_(tool), print_usage_(print_usage) {}

  /// A whole number in [min, max].
  std::uint64_t count(
      const std::string& flag, const std::string& text, std::uint64_t min = 0,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const {
    std::uint64_t v = 0;
    if (!parse_all(text, v) || v < min || v > max) reject(flag, text);
    return v;
  }

  /// A finite real number.
  double real(const std::string& flag, const std::string& text) const {
    double v = 0.0;
    if (!parse_all(text, v) || !std::isfinite(v)) reject(flag, text);
    return v;
  }

  [[noreturn]] void reject(const std::string& flag,
                           const std::string& text) const {
    std::fprintf(stderr, "%s: invalid value '%s' for %s\n", tool_,
                 text.c_str(), flag.c_str());
    print_usage_(stderr);
    std::exit(1);
  }

 private:
  /// True when all of `text` (and nothing else) parses as a T.
  template <class T>
  static bool parse_all(const std::string& text, T& v) {
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    return !text.empty() && ec == std::errc() && ptr == end;
  }

  const char* tool_;
  void (*print_usage_)(std::FILE*);
};

}  // namespace lcsf::tools
