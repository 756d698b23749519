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
      kv_.emplace_back(tok.substr(0, eq), tok.substr(eq + 1));
      continue;
    }
    // `--key value` when the next token is not itself a flag.
    if (i + 1 < argc && !looks_like_flag(argv[i + 1])) {
      kv_.emplace_back(tok, argv[i + 1]);
      ++i;
    } else {
      kv_.emplace_back(tok, "");  // boolean flag
    }
  }
}

std::optional<std::string> Args::lookup(const std::string& key) const {
  looked_up_.insert(key);
  for (auto it = kv_.rbegin(); it != kv_.rend(); ++it) {
    if (it->first == key) return it->second;
  }
  return std::nullopt;
}

bool Args::has(const std::string& key) const {
  return lookup(key).has_value();
}

void Args::reject_unknown() const {
  for (const auto& [key, value] : kv_) {
    if (looked_up_.count(key) == 0) {
      std::cerr << program_ << ": unknown flag '--" << key << "'\n";
      std::exit(2);
    }
  }
}

std::string Args::get(const std::string& key,
                      const std::string& fallback) const {
  const auto v = lookup(key);
  return v && !v->empty() ? *v : fallback;
}

void Args::usage_error(const std::string& key, const std::string& expected,
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
/// The most values a range flag may expand to. The count is checked before
/// the range is expanded, so `0..2000000000` is a usage error, not an 8 GB
/// vector.
constexpr long kMaxListValues = 1 << 16;

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, sep)) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// "a,b,c", "lo..hi" or "lo..hi:step"; nullopt on any malformed token, a
/// non-positive step, an empty result or a range over kMaxListValues values.
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
    if (!lo || !hi || !step || *step <= 0 || *hi < *lo) return std::nullopt;
    if ((static_cast<long>(*hi) - *lo) / *step >= kMaxListValues) {
      return std::nullopt;
    }
    for (long v = *lo; v <= *hi; v += *step) out.push_back(static_cast<int>(v));
    return out;
  }
  for (const auto& tok : split(spec, ',')) {
    const std::optional<int> v = parse_int(tok);
    if (!v) return std::nullopt;
    out.push_back(*v);
  }
  if (out.empty()) return std::nullopt;
  return out;
}
}  // namespace

std::vector<int> Args::get_int_list(const std::string& key,
                                    const std::vector<int>& fallback) const {
  const auto v = lookup(key);
  if (!v || v->empty()) return fallback;
  std::optional<std::vector<int>> parsed = parse_int_list(*v);
  if (!parsed) {
    usage_error(key,
                "an integer list (a,b,c or lo..hi[:step]) of 1 to " +
                    std::to_string(kMaxListValues) + " values",
                *v);
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
    if (!parsed) usage_error(key, "a list of numbers, at least one", *v);
    out.push_back(*parsed);
  }
  if (out.empty()) usage_error(key, "a list of numbers, at least one", *v);
  return out;
}

}  // namespace qq::util
