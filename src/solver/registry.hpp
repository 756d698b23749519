#pragma once
// String-spec solver registry: every backend (and its options) is
// constructible from a single string, so CLIs, config files, and the ML
// selection layer can name solvers without compile-time coupling.
//
// Spec grammar:
//
//   spec       := name [ ':' params ]
//   params     := key '=' value ( ',' key '=' value )*      (leaf backends)
//   params     := child-spec ( '|' child-spec )*            ("best" combinator)
//
// Examples: "anneal", "qaoa:p=3,shots=512", "gw:rounds=20",
// "best:qaoa|gw", "best:qaoa:p=2|gw:rounds=10|anneal".
//
// Malformed specs (unknown name, unknown key, non-numeric value, a value
// outside the range its backend accepts, empty key/child) throw
// std::invalid_argument with the offending spec quoted — never crash.
// Specs longer than kMaxSpecLength characters or nesting combinators
// deeper than kMaxSpecDepth levels are rejected the same way, so
// adversarial input ("best:best:best:...") cannot exhaust the stack.
//
// Adding a backend: implement a `solver::Solver`, then
// `SolverRegistry::global().register_solver(name, summary, params,
// factory)`; the factory receives the raw parameter text (parse it with
// `Params`), the registry (for combinators that construct children), and
// the caller's SolverDefaults. See DESIGN.md "Solver registry".

#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "solver/solver.hpp"

namespace qq::solver {

class SolverRegistry;

/// Longest accepted spec string; anything longer throws
/// std::invalid_argument before parsing.
inline constexpr std::size_t kMaxSpecLength = 4096;
/// Deepest accepted combinator nesting (`make` recursion depth). Generous
/// for real use — "best:" chains recurse once per level — while bounding
/// stack growth on adversarial specs.
inline constexpr int kMaxSpecDepth = 16;

namespace detail {
/// Strips leading/trailing spec whitespace (spaces and tabs). Shared by
/// the registry's spec splitting and the combinator factories so the two
/// never disagree on what counts as blank.
std::string_view trim_spec(std::string_view text) noexcept;
}  // namespace detail

/// Typed accessor over a spec's "k=v,k=v" parameter text. Construction
/// validates the syntax and that every key is in `allowed`; getters parse
/// on demand. All failures throw std::invalid_argument naming the solver.
/// Factories pass the range their backend accepts, so a spec builds only
/// if it solves with exactly the values it names.
class Params {
 public:
  Params(std::string_view solver_name, std::string_view text,
         std::initializer_list<std::string_view> allowed);

  bool has(std::string_view key) const noexcept;
  /// The value of `key`, which must be a whole int >= min; `fallback` when
  /// the key is absent.
  int get_int(std::string_view key, int fallback,
              int min = std::numeric_limits<int>::min()) const;
  /// The value of `key`, which must be a finite number in [min, max];
  /// `fallback` when the key is absent.
  double get_double(std::string_view key, double fallback,
                    double min = std::numeric_limits<double>::lowest(),
                    double max = std::numeric_limits<double>::max()) const;
  /// Throws the same std::invalid_argument for a rule that spans several
  /// parameters.
  [[noreturn]] void reject(const std::string& what) const;

 private:
  std::string solver_;
  std::vector<std::pair<std::string, std::string>> kv_;
};

class SolverRegistry {
 public:
  /// One `--list-solvers` help row per parameter.
  struct ParamHelp {
    std::string key;
    std::string description;
  };

  /// Builds a Solver from the raw parameter text (everything after the
  /// first ':', empty if none).
  using Factory = std::function<SolverPtr(const SolverRegistry& registry,
                                          std::string_view params,
                                          const SolverDefaults& defaults)>;

  /// The process-wide registry, pre-populated with the built-in backends.
  /// Mutation (register_solver) is not thread-safe; register extensions at
  /// startup.
  static SolverRegistry& global();

  /// Registers `factory` under `name`. Throws std::invalid_argument if the
  /// name is empty, contains spec metacharacters (':', ',', '|', '=',
  /// whitespace), or is already registered.
  void register_solver(std::string name, std::string summary,
                       std::vector<ParamHelp> params, Factory factory);

  bool contains(std::string_view name) const noexcept;
  /// Registered names, in registration order.
  std::vector<std::string> names() const;

  /// Parse `spec` and construct the solver. Throws std::invalid_argument
  /// on any malformed spec (see grammar above).
  SolverPtr make(std::string_view spec,
                 const SolverDefaults& defaults = {}) const;

  /// Human-readable listing of every solver and its parameters — the
  /// `--list-solvers` output of the benches and examples.
  std::string help() const;

 private:
  struct Entry {
    std::string name;
    std::string summary;
    std::vector<ParamHelp> params;
    Factory factory;
  };

  const Entry* find(std::string_view name) const noexcept;

  std::vector<Entry> entries_;
};

}  // namespace qq::solver
