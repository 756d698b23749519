#pragma once
// Minimal command-line parsing for the bench harnesses and examples.
//
// Supports `--flag`, `--key value`, and `--key=value`. Integer lists accept
// both comma syntax ("8,10,12") and range syntax ("8..12" or "8..12:2").
// A value that is not a number where one is expected is a usage error: the
// getters print `<program>: --<key> expects ..., got '<value>'` and exit
// with status 2.

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace qq::util {

/// Strict whole-token parses shared by the CLI and the solver-spec
/// parameters: nullopt unless all of `text` is one base-10 int in range.
std::optional<int> parse_int(std::string_view text);
/// As parse_int, for a finite double (NaN, infinities and overflow fail).
std::optional<double> parse_double(std::string_view text);

class Args {
 public:
  Args(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  int get_int(const std::string& key, int fallback) const;
  double get_double(const std::string& key, double fallback) const;
  /// Parse "a,b,c" or "lo..hi" or "lo..hi:step" into a list of ints.
  std::vector<int> get_int_list(const std::string& key,
                                const std::vector<int>& fallback) const;
  std::vector<double> get_double_list(const std::string& key,
                                      const std::vector<double>& fallback) const;

  const std::string& program() const { return program_; }

 private:
  std::optional<std::string> lookup(const std::string& key) const;
  [[noreturn]] void usage_error(const std::string& key, const char* expected,
                                const std::string& value) const;
  std::string program_;
  std::unordered_map<std::string, std::string> kv_;
};

}  // namespace qq::util
