#pragma once
// Minimal command-line parsing for the bench harnesses and examples.
//
// Supports `--flag`, `--key value`, and `--key=value`. Integer lists accept
// both comma syntax ("8,10,12") and range syntax ("8..12" or "8..12:2").
// A value that is not a number where one is expected, an empty list, or a
// range of more than 65536 values is a usage error: the getters print
// `<program>: --<key> expects ..., got '<value>'` and exit with status 2.
// A flag that no has/get* call looked up is one too, once the program
// calls reject_unknown().

#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
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

  /// Exit 2 with `<program>: unknown flag '--<name>'` when the command line
  /// holds a flag that no has/get* call has looked up. Call it after the
  /// program's last lookup and before it does any work.
  void reject_unknown() const;

 private:
  std::optional<std::string> lookup(const std::string& key) const;
  [[noreturn]] void usage_error(const std::string& key,
                                const std::string& expected,
                                const std::string& value) const;
  std::string program_;
  /// (key, value) in command-line order; a repeated key's last value wins.
  std::vector<std::pair<std::string, std::string>> kv_;
  mutable std::unordered_set<std::string> looked_up_;
};

}  // namespace qq::util
