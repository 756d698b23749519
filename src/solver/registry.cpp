#include "solver/registry.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "solver/adapters.hpp"
#include "util/cli.hpp"

namespace qq::solver {

namespace detail {

std::string_view trim_spec(std::string_view s) noexcept {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace detail

namespace {

using detail::trim_spec;

[[noreturn]] void bad_spec(std::string_view solver, const std::string& what) {
  throw std::invalid_argument("solver spec '" + std::string(solver) +
                              "': " + what);
}

}  // namespace

// ------------------------------------------------------------- Params ----

Params::Params(std::string_view solver_name, std::string_view text,
               std::initializer_list<std::string_view> allowed)
    : solver_(solver_name) {
  text = trim_spec(text);
  while (!text.empty()) {
    const std::size_t comma = text.find(',');
    const std::string_view item =
        trim_spec(comma == std::string_view::npos ? text : text.substr(0, comma));
    text = comma == std::string_view::npos ? std::string_view{}
                                           : text.substr(comma + 1);
    if (item.empty()) bad_spec(solver_, "empty parameter");
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      bad_spec(solver_, "parameter '" + std::string(item) +
                            "' is not of the form key=value");
    }
    const std::string_view key = trim_spec(item.substr(0, eq));
    const std::string_view value = trim_spec(item.substr(eq + 1));
    if (key.empty()) bad_spec(solver_, "empty parameter key");
    if (value.empty()) {
      bad_spec(solver_, "parameter '" + std::string(key) + "' has no value");
    }
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      std::string known;
      for (const std::string_view a : allowed) {
        known += known.empty() ? std::string(a) : ", " + std::string(a);
      }
      bad_spec(solver_, "unknown parameter '" + std::string(key) +
                            "' (known: " + (known.empty() ? "none" : known) +
                            ")");
    }
    if (has(key)) {
      bad_spec(solver_, "duplicate parameter '" + std::string(key) + "'");
    }
    kv_.emplace_back(std::string(key), std::string(value));
  }
}

bool Params::has(std::string_view key) const noexcept {
  for (const auto& [k, v] : kv_) {
    if (k == key) return true;
  }
  return false;
}

int Params::get_int(std::string_view key, int fallback, int min) const {
  for (const auto& [k, v] : kv_) {
    if (k != key) continue;
    const std::optional<int> parsed = util::parse_int(v);
    if (!parsed || *parsed < min) {
      bad_spec(solver_,
               "parameter '" + k + "' expects an integer" +
                   (min == std::numeric_limits<int>::min()
                        ? std::string()
                        : " >= " + std::to_string(min)) +
                   ", got '" + v + "'");
    }
    return *parsed;
  }
  return fallback;
}

double Params::get_double(std::string_view key, double fallback, double min,
                          double max) const {
  for (const auto& [k, v] : kv_) {
    if (k != key) continue;
    const std::optional<double> parsed = util::parse_double(v);
    if (!parsed || *parsed < min || *parsed > max) {
      std::ostringstream range;
      if (max < std::numeric_limits<double>::max()) {
        range << " in [" << min << ", " << max << "]";
      } else if (min > std::numeric_limits<double>::lowest()) {
        range << " >= " << min;
      }
      bad_spec(solver_, "parameter '" + k + "' expects a finite number" +
                            range.str() + ", got '" + v + "'");
    }
    return *parsed;
  }
  return fallback;
}

void Params::reject(const std::string& what) const { bad_spec(solver_, what); }

// ----------------------------------------------------- SolverRegistry ----

SolverRegistry& SolverRegistry::global() {
  static SolverRegistry* registry = [] {
    auto* r = new SolverRegistry();
    register_builtin_solvers(*r);
    return r;
  }();
  return *registry;
}

void SolverRegistry::register_solver(std::string name, std::string summary,
                                     std::vector<ParamHelp> params,
                                     Factory factory) {
  if (name.empty()) {
    throw std::invalid_argument("SolverRegistry: empty solver name");
  }
  if (name.find_first_of(":,|= \t") != std::string::npos) {
    throw std::invalid_argument("SolverRegistry: name '" + name +
                                "' contains spec metacharacters");
  }
  if (contains(name)) {
    throw std::invalid_argument("SolverRegistry: '" + name +
                                "' is already registered");
  }
  if (!factory) {
    throw std::invalid_argument("SolverRegistry: null factory for '" + name +
                                "'");
  }
  entries_.push_back(Entry{std::move(name), std::move(summary),
                           std::move(params), std::move(factory)});
}

bool SolverRegistry::contains(std::string_view name) const noexcept {
  return find(name) != nullptr;
}

std::vector<std::string> SolverRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.name);
  return out;
}

const SolverRegistry::Entry* SolverRegistry::find(
    std::string_view name) const noexcept {
  for (const Entry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

namespace {

/// Recursion depth of nested SolverRegistry::make calls on this thread —
/// combinator factories construct children through make, so adversarial
/// "best:best:..." chains grow the call stack one frame per level. The
/// guard turns that into std::invalid_argument at kMaxSpecDepth instead of
/// a stack overflow.
thread_local int g_make_depth = 0;

struct MakeDepthGuard {
  MakeDepthGuard(std::string_view spec) {
    if (++g_make_depth > kMaxSpecDepth) {
      --g_make_depth;
      throw std::invalid_argument(
          "solver spec '" + std::string(spec.substr(0, 64)) +
          "': combinators nested deeper than " + std::to_string(kMaxSpecDepth) +
          " levels");
    }
  }
  ~MakeDepthGuard() { --g_make_depth; }
  MakeDepthGuard(const MakeDepthGuard&) = delete;
  MakeDepthGuard& operator=(const MakeDepthGuard&) = delete;
};

}  // namespace

SolverPtr SolverRegistry::make(std::string_view spec,
                               const SolverDefaults& defaults) const {
  if (spec.size() > kMaxSpecLength) {
    throw std::invalid_argument(
        "solver spec: " + std::to_string(spec.size()) +
        " characters exceeds the " + std::to_string(kMaxSpecLength) +
        "-character limit");
  }
  const std::string_view trimmed = trim_spec(spec);
  if (trimmed.empty()) {
    throw std::invalid_argument("solver spec: empty string");
  }
  const MakeDepthGuard depth_guard(trimmed);
  const std::size_t colon = trimmed.find(':');
  const std::string_view name =
      trim_spec(colon == std::string_view::npos ? trimmed
                                           : trimmed.substr(0, colon));
  const std::string_view params =
      colon == std::string_view::npos ? std::string_view{}
                                      : trimmed.substr(colon + 1);
  const Entry* entry = find(name);
  if (entry == nullptr) {
    std::string known;
    for (const Entry& e : entries_) {
      known += known.empty() ? e.name : ", " + e.name;
    }
    throw std::invalid_argument("solver spec '" + std::string(trimmed) +
                                "': unknown solver '" + std::string(name) +
                                "' (registered: " + known + ")");
  }
  SolverPtr solver = entry->factory(*this, params, defaults);
  if (!solver) {
    throw std::invalid_argument("solver spec '" + std::string(trimmed) +
                                "': factory returned null");
  }
  return solver;
}

std::string SolverRegistry::help() const {
  std::ostringstream os;
  os << "registered solvers (spec: name[:key=value,...]; combinators take "
        "child specs):\n";
  for (const Entry& e : entries_) {
    os << "  " << e.name;
    for (std::size_t pad = e.name.size(); pad < 14; ++pad) os << ' ';
    os << e.summary << '\n';
    for (const ParamHelp& p : e.params) {
      os << "      " << p.key << ' ';
      for (std::size_t pad = p.key.size() + 1; pad < 10; ++pad) os << ' ';
      os << p.description << '\n';
    }
  }
  return os.str();
}

}  // namespace qq::solver
