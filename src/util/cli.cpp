#include "util/cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>

namespace qq::util {

std::optional<int> parse_int(std::string_view text) {
  const std::string s(text);
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE ||
      parsed < std::numeric_limits<int>::min() ||
      parsed > std::numeric_limits<int>::max()) {
    return std::nullopt;
  }
  return static_cast<int>(parsed);
}

std::optional<double> parse_double(std::string_view text) {
  const std::string s(text);
  char* end = nullptr;
  const double parsed = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || !std::isfinite(parsed)) {
    return std::nullopt;
  }
  return parsed;
}

namespace {
bool looks_like_flag(const std::string& s) {
  return s.size() >= 3 && s[0] == '-' && s[1] == '-';
}
}  // namespace

Args::Args(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string tok = argv[i];
    if (!looks_like_flag(tok)) continue;
    tok = tok.substr(2);
    const auto eq = tok.find('=');
    if (eq != std::string::npos) {
      kv_[tok.substr(0, eq)] = tok.substr(eq + 1);
      continue;
    }
    // `--key value` when the next token is not itself a flag.
    if (i + 1 < argc && !looks_like_flag(argv[i + 1])) {
      kv_[tok] = argv[i + 1];
      ++i;
    } else {
      kv_[tok] = "";  // boolean flag
    }
  }
}

std::optional<std::string> Args::lookup(const std::string& key) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return std::nullopt;
  return it->second;
}

bool Args::has(const std::string& key) const { return kv_.count(key) > 0; }

std::string Args::get(const std::string& key,
                      const std::string& fallback) const {
  const auto v = lookup(key);
  return v && !v->empty() ? *v : fallback;
}

void Args::usage_error(const std::string& key, const char* expected,
                       const std::string& value) const {
  std::cerr << program_ << ": --" << key << " expects " << expected
            << ", got '" << value << "'\n";
  std::exit(2);
}

int Args::get_int(const std::string& key, int fallback) const {
  const auto v = lookup(key);
  if (!v || v->empty()) return fallback;
  const std::optional<int> parsed = parse_int(*v);
  if (!parsed) usage_error(key, "an integer", *v);
  return *parsed;
}

double Args::get_double(const std::string& key, double fallback) const {
  const auto v = lookup(key);
  if (!v || v->empty()) return fallback;
  const std::optional<double> parsed = parse_double(*v);
  if (!parsed) usage_error(key, "a number", *v);
  return *parsed;
}

namespace {
std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, sep)) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// "a,b,c", "lo..hi" or "lo..hi:step"; nullopt on any malformed token or a
/// non-positive step.
std::optional<std::vector<int>> parse_int_list(const std::string& spec) {
  std::vector<int> out;
  const auto range_pos = spec.find("..");
  if (range_pos != std::string::npos) {
    std::string rest = spec.substr(range_pos + 2);
    std::optional<int> step = 1;
    const auto colon = rest.find(':');
    if (colon != std::string::npos) {
      step = parse_int(rest.substr(colon + 1));
      rest = rest.substr(0, colon);
    }
    const std::optional<int> lo = parse_int(spec.substr(0, range_pos));
    const std::optional<int> hi = parse_int(rest);
    if (!lo || !hi || !step || *step <= 0) return std::nullopt;
    for (long v = *lo; v <= *hi; v += *step) out.push_back(static_cast<int>(v));
    return out;
  }
  for (const auto& tok : split(spec, ',')) {
    const std::optional<int> v = parse_int(tok);
    if (!v) return std::nullopt;
    out.push_back(*v);
  }
  return out;
}
}  // namespace

std::vector<int> Args::get_int_list(const std::string& key,
                                    const std::vector<int>& fallback) const {
  const auto v = lookup(key);
  if (!v || v->empty()) return fallback;
  std::optional<std::vector<int>> parsed = parse_int_list(*v);
  if (!parsed) {
    usage_error(key, "an integer list (a,b,c or lo..hi[:step])", *v);
  }
  return *std::move(parsed);
}

std::vector<double> Args::get_double_list(
    const std::string& key, const std::vector<double>& fallback) const {
  const auto v = lookup(key);
  if (!v || v->empty()) return fallback;
  std::vector<double> out;
  for (const auto& tok : split(*v, ',')) {
    const std::optional<double> parsed = parse_double(tok);
    if (!parsed) usage_error(key, "a list of numbers", *v);
    out.push_back(*parsed);
  }
  return out;
}

}  // namespace qq::util
