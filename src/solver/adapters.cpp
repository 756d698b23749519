#include "solver/adapters.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "maxcut/anneal.hpp"
#include "maxcut/baselines.hpp"
#include "maxcut/exact.hpp"
#include "qaoa/qaoa.hpp"
#include "qaoa/rqaoa.hpp"
#include "sdp/gw.hpp"
#include "util/rng.hpp"

namespace qq::solver {

namespace {

// Seed salts of the pre-registry Qaoa2Driver dispatch switch. They live
// here now so a registry-built solver at seed s is bit-for-bit identical to
// the pre-registry dispatch at the same seed.
constexpr std::uint64_t kGwSdpSalt = 0x5d9ULL;
constexpr std::uint64_t kAnnealSalt = 0xa22ea1ULL;
constexpr std::uint64_t kLocalSearchSalt = 0x10ca15ULL;

/// Shared name/kind plumbing for the non-combinator backends.
class LeafSolver : public Solver {
 public:
  LeafSolver(std::string_view name, sched::ResourceKind kind) noexcept
      : name_(name), kind_(kind) {}

  std::string_view name() const noexcept final { return name_; }
  sched::ResourceKind resource_kind() const noexcept final { return kind_; }

 private:
  std::string_view name_;  // points at the static registration literal
  sched::ResourceKind kind_;
};

// ---------------------------------------------------------- quantum ----

class QaoaAdapter final : public LeafSolver {
 public:
  explicit QaoaAdapter(qaoa::QaoaOptions options) noexcept
      : LeafSolver("qaoa", sched::ResourceKind::kQuantum),
        options_(options) {}

  int warm_start_dimension() const noexcept override {
    return 2 * options_.layers;
  }

 protected:
  SolveReport do_solve(const SolveRequest& request) const override {
    qaoa::QaoaOptions opts = options_;
    opts.seed = request.seed;
    opts.context = request.context;
    if (request.initial_parameters != nullptr &&
        request.initial_parameters->size() ==
            static_cast<std::size_t>(2 * opts.layers)) {
      opts.initial_parameters = *request.initial_parameters;
    }
    const qaoa::QaoaResult res = qaoa::solve_qaoa(*request.graph, opts);
    SolveReport report;
    report.cut = res.cut;
    report.evaluations = res.evaluations;
    report.metrics = {{"expectation", res.expectation},
                      {"best_sampled", res.best_sampled_value},
                      {"layers", static_cast<double>(res.layers)}};
    report.parameters = res.parameters;
    return report;
  }

 private:
  qaoa::QaoaOptions options_;
};

class RqaoaAdapter final : public LeafSolver {
 public:
  RqaoaAdapter(qaoa::QaoaOptions qaoa_options, int cutoff) noexcept
      : LeafSolver("rqaoa", sched::ResourceKind::kQuantum),
        qaoa_(qaoa_options),
        cutoff_(cutoff) {}

 protected:
  SolveReport do_solve(const SolveRequest& request) const override {
    qaoa::RqaoaOptions opts;
    opts.qaoa = qaoa_;
    opts.qaoa.seed = request.seed;
    opts.qaoa.context = request.context;
    opts.cutoff = cutoff_;
    const qaoa::RqaoaResult res = qaoa::solve_rqaoa(*request.graph, opts);
    SolveReport report;
    report.cut = res.cut;
    report.evaluations = res.total_evaluations;
    report.metrics = {{"rounds", static_cast<double>(res.rounds)}};
    return report;
  }

 private:
  qaoa::QaoaOptions qaoa_;
  int cutoff_;
};

// --------------------------------------------------------- classical ----

class GwAdapter final : public LeafSolver {
 public:
  explicit GwAdapter(sdp::GwOptions options) noexcept
      : LeafSolver("gw", sched::ResourceKind::kClassical),
        options_(options) {}

 protected:
  SolveReport do_solve(const SolveRequest& request) const override {
    sdp::GwOptions opts = options_;
    opts.seed = request.seed;
    opts.sdp.seed = request.seed ^ kGwSdpSalt;
    opts.context = request.context;
    const sdp::GwResult res = sdp::goemans_williamson(*request.graph, opts);
    SolveReport report;
    report.cut = res.best;
    report.metrics = {{"average_value", res.average_value},
                      {"sdp_bound", res.sdp_bound},
                      {"sdp_sweeps", static_cast<double>(res.sdp_sweeps)},
                      {"sdp_converged", res.sdp_converged ? 1.0 : 0.0}};
    return report;
  }

 private:
  sdp::GwOptions options_;
};

class ExactAdapter final : public LeafSolver {
 public:
  ExactAdapter() noexcept
      : LeafSolver("exact", sched::ResourceKind::kClassical) {}

 protected:
  SolveReport do_solve(const SolveRequest& request) const override {
    SolveReport report;
    report.cut = maxcut::solve_exact(*request.graph);
    return report;
  }
};

class AnnealAdapter final : public LeafSolver {
 public:
  explicit AnnealAdapter(maxcut::AnnealOptions options) noexcept
      : LeafSolver("anneal", sched::ResourceKind::kClassical),
        options_(options) {}

 protected:
  SolveReport do_solve(const SolveRequest& request) const override {
    util::Rng rng(request.seed ^ kAnnealSalt);
    maxcut::AnnealOptions opts = options_;
    opts.context = request.context;
    SolveReport report;
    report.cut = maxcut::simulated_annealing(*request.graph, rng, opts);
    return report;
  }

 private:
  maxcut::AnnealOptions options_;
};

class LocalSearchAdapter final : public LeafSolver {
 public:
  explicit LocalSearchAdapter(int restarts) noexcept
      : LeafSolver("local-search", sched::ResourceKind::kClassical),
        restarts_(restarts) {}

 protected:
  SolveReport do_solve(const SolveRequest& request) const override {
    util::Rng rng(request.seed ^ kLocalSearchSalt);
    SolveReport report;
    report.cut = maxcut::one_exchange_restarts(*request.graph, rng, restarts_,
                                               request.context);
    return report;
  }

 private:
  int restarts_;
};

class GreedyAdapter final : public LeafSolver {
 public:
  GreedyAdapter() noexcept
      : LeafSolver("greedy", sched::ResourceKind::kClassical) {}

 protected:
  SolveReport do_solve(const SolveRequest& request) const override {
    SolveReport report;
    report.cut = maxcut::greedy_cut(*request.graph);
    return report;
  }
};

class RandomAdapter final : public LeafSolver {
 public:
  explicit RandomAdapter(double p) noexcept
      : LeafSolver("random", sched::ResourceKind::kClassical), p_(p) {}

 protected:
  SolveReport do_solve(const SolveRequest& request) const override {
    util::Rng rng(request.seed);
    SolveReport report;
    report.cut = maxcut::randomized_partitioning(*request.graph, rng, p_);
    return report;
  }

 private:
  double p_;
};

// -------------------------------------------------------- combinator ----

/// Runs every child on the same request and keeps the best cut (ties go to
/// the earlier-listed child, preserving the old "QAOA wins ties over GW"
/// behaviour of kBest). Reports the child solves of BOTH kinds so callers
/// no longer undercount a best-of as a single solve.
class BestOfSolver final : public Solver {
 public:
  explicit BestOfSolver(std::vector<SolverPtr> children)
      : children_(std::move(children)) {
    if (children_.empty()) {
      throw std::invalid_argument("solver spec 'best': no children");
    }
  }

  std::string_view name() const noexcept override { return "best"; }

  /// Quantum only when every child is quantum; a mixed best-of occupies a
  /// classical slot when run as one task (callers that fan children out as
  /// separate tasks use each child's own kind instead).
  sched::ResourceKind resource_kind() const noexcept override {
    for (const SolverPtr& child : children_) {
      if (child->resource_kind() != sched::ResourceKind::kQuantum) {
        return sched::ResourceKind::kClassical;
      }
    }
    return sched::ResourceKind::kQuantum;
  }

  std::vector<const Solver*> children() const override {
    std::vector<const Solver*> out;
    out.reserve(children_.size());
    for (const SolverPtr& child : children_) out.push_back(child.get());
    return out;
  }

  std::pair<int, int> solve_counts() const override {
    int quantum = 0, classical = 0;
    for (const SolverPtr& child : children_) {
      const auto [q, c] = child->solve_counts();
      quantum += q;
      classical += c;
    }
    return {quantum, classical};
  }

  /// First child that can consume a warm start; the request's
  /// initial_parameters reach every child, but only matching dimensions
  /// bite, so the dominant (first) parameterized child decides.
  int warm_start_dimension() const noexcept override {
    for (const SolverPtr& child : children_) {
      const int dim = child->warm_start_dimension();
      if (dim > 0) return dim;
    }
    return 0;
  }

 protected:
  SolveReport do_solve(const SolveRequest& request) const override {
    SolveReport report;
    int winner = 0;
    for (std::size_t i = 0; i < children_.size(); ++i) {
      const SolveReport child = children_[i]->solve(request);
      report.quantum_solves += child.quantum_solves;
      report.classical_solves += child.classical_solves;
      report.evaluations += child.evaluations;
      if (i == 0 || child.cut.value > report.cut.value) {
        report.cut = child.cut;
        report.parameters = child.parameters;
        winner = static_cast<int>(i);
      }
    }
    report.metrics = {{"winner_index", static_cast<double>(winner)}};
    return report;
  }

 private:
  std::vector<SolverPtr> children_;
};

SolverPtr make_best(const SolverRegistry& registry, std::string_view params,
                    const SolverDefaults& defaults) {
  std::vector<SolverPtr> children;
  // An empty parameter list selects the paper's hybrid pairing
  // best-of(QAOA, GW).
  std::string_view rest = detail::trim_spec(params);
  if (rest.empty()) {
    children.push_back(registry.make("qaoa", defaults));
    children.push_back(registry.make("gw", defaults));
    return std::make_unique<BestOfSolver>(std::move(children));
  }
  while (true) {
    const std::size_t bar = rest.find('|');
    const std::string_view child = detail::trim_spec(
        bar == std::string_view::npos ? rest : rest.substr(0, bar));
    if (child.empty()) {
      throw std::invalid_argument("solver spec 'best': empty child spec");
    }
    children.push_back(registry.make(child, defaults));
    if (bar == std::string_view::npos) break;
    rest = rest.substr(bar + 1);
  }
  return std::make_unique<BestOfSolver>(std::move(children));
}

}  // namespace

void register_builtin_solvers(SolverRegistry& registry) {
  registry.register_solver(
      "qaoa", "simulated QAOA (quantum; paper Fig. 4 \"QAOA\")",
      {{"p", "ansatz layers (default 3)"},
       {"iters", "COBYLA evaluation budget; 0 = paper schedule"},
       {"shots", "shots per circuit execution"},
       {"rhobeg", "COBYLA initial step"},
       {"topk", "top-k amplitudes scanned for the answer"},
       {"restarts", "batched optimizer restarts (default 1)"}},
      [](const SolverRegistry&, std::string_view params,
         const SolverDefaults& defaults) -> SolverPtr {
        const Params p("qaoa", params,
                       {"p", "iters", "shots", "rhobeg", "topk", "restarts"});
        qaoa::QaoaOptions opts = defaults.qaoa;
        opts.layers = p.get_int("p", opts.layers, 1);
        opts.max_iterations = p.get_int("iters", opts.max_iterations, 0);
        opts.shots = p.get_int("shots", opts.shots, 0);
        opts.rhobeg = p.get_double("rhobeg", opts.rhobeg, qaoa::kRhoend);
        opts.top_k = p.get_int("topk", opts.top_k, 1);
        opts.restarts = p.get_int("restarts", opts.restarts, 1);
        return std::make_unique<QaoaAdapter>(opts);
      });

  registry.register_solver(
      "rqaoa", "recursive QAOA (quantum; Bravyi et al. extension)",
      {{"p", "per-round ansatz layers"},
       {"iters", "per-round COBYLA evaluation budget"},
       {"shots", "shots per circuit execution"},
       {"rhobeg", "COBYLA initial step"},
       {"cutoff", "solve exactly at this node count (default 8)"}},
      [](const SolverRegistry&, std::string_view params,
         const SolverDefaults& defaults) -> SolverPtr {
        const Params p("rqaoa", params,
                       {"p", "iters", "shots", "rhobeg", "cutoff"});
        qaoa::QaoaOptions opts = defaults.qaoa;
        opts.layers = p.get_int("p", opts.layers, 1);
        opts.max_iterations = p.get_int("iters", opts.max_iterations, 0);
        opts.shots = p.get_int("shots", opts.shots, 0);
        opts.rhobeg = p.get_double("rhobeg", opts.rhobeg, qaoa::kRhoend);
        return std::make_unique<RqaoaAdapter>(
            opts, p.get_int("cutoff", defaults.rqaoa_cutoff, 2));
      });

  registry.register_solver(
      "gw",
      "Goemans-Williamson SDP + hyperplane rounding (paper Fig. 4 "
      "\"Classic\")",
      {{"rounds", "hyperplane slicings (default 30, as in the paper)"},
       {"sweeps", "mixing-method SDP sweep cap"},
       {"rank", "SDP embedding dimension; 0 = auto"},
       {"tol", "SDP convergence tolerance"}},
      [](const SolverRegistry&, std::string_view params,
         const SolverDefaults& defaults) -> SolverPtr {
        const Params p("gw", params, {"rounds", "sweeps", "rank", "tol"});
        sdp::GwOptions opts = defaults.gw;
        opts.slicings = p.get_int("rounds", opts.slicings, 1);
        opts.sdp.max_sweeps = p.get_int("sweeps", opts.sdp.max_sweeps, 0);
        opts.sdp.rank = p.get_int("rank", opts.sdp.rank, 0);
        opts.sdp.tol = p.get_double("tol", opts.sdp.tol, 0.0);
        return std::make_unique<GwAdapter>(opts);
      });

  registry.register_solver(
      "exact", "exhaustive enumeration (ground truth, n <= 30)", {},
      [](const SolverRegistry&, std::string_view params,
         const SolverDefaults&) -> SolverPtr {
        const Params p("exact", params, {});
        return std::make_unique<ExactAdapter>();
      });

  registry.register_solver(
      "anneal", "single-flip Metropolis simulated annealing",
      {{"sweeps", "full passes over the nodes (default 200)"},
       {"t0", "initial temperature (default 2.0)"},
       {"t1", "final temperature (default 0.01)"}},
      [](const SolverRegistry&, std::string_view params,
         const SolverDefaults& defaults) -> SolverPtr {
        const Params p("anneal", params, {"sweeps", "t0", "t1"});
        maxcut::AnnealOptions opts = defaults.anneal;
        opts.sweeps = p.get_int("sweeps", opts.sweeps, 1);
        opts.t_initial = p.get_double("t0", opts.t_initial);
        opts.t_final = p.get_double("t1", opts.t_final);
        if (!(0.0 < opts.t_final && opts.t_final <= opts.t_initial)) {
          p.reject("temperatures need 0 < t1 <= t0");
        }
        return std::make_unique<AnnealAdapter>(opts);
      });

  registry.register_solver(
      "local-search", "one-exchange local search with restarts",
      {{"restarts", "independent restarts (default 10)"}},
      [](const SolverRegistry&, std::string_view params,
         const SolverDefaults& defaults) -> SolverPtr {
        const Params p("local-search", params, {"restarts"});
        return std::make_unique<LocalSearchAdapter>(
            p.get_int("restarts", defaults.local_search_restarts, 1));
      });

  registry.register_solver(
      "greedy", "deterministic greedy constructive heuristic", {},
      [](const SolverRegistry&, std::string_view params,
         const SolverDefaults&) -> SolverPtr {
        const Params p("greedy", params, {});
        return std::make_unique<GreedyAdapter>();
      });

  registry.register_solver(
      "random", "random partition (paper Fig. 4 \"Random\" baseline)",
      {{"p", "per-node side probability (default 0.5)"}},
      [](const SolverRegistry&, std::string_view params,
         const SolverDefaults& defaults) -> SolverPtr {
        const Params p("random", params, {"p"});
        return std::make_unique<RandomAdapter>(
            p.get_double("p", defaults.random_p, 0.0, 1.0));
      });

  registry.register_solver(
      "best",
      "combinator: run child solvers, keep the better cut (paper Fig. 4 "
      "\"Best\"; default children qaoa|gw)",
      {{"<children>", "child specs separated by '|', e.g. best:qaoa|gw"}},
      make_best);
}

}  // namespace qq::solver
