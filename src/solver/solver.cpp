#include "solver/solver.hpp"

#include <stdexcept>

#include "util/timer.hpp"

namespace qq::solver {

std::pair<int, int> Solver::solve_counts() const {
  return resource_kind() == sched::ResourceKind::kQuantum
             ? std::pair<int, int>{1, 0}
             : std::pair<int, int>{0, 1};
}

SolveReport Solver::solve(const SolveRequest& request) const {
  if (request.graph == nullptr) {
    throw std::invalid_argument("Solver::solve: request.graph is null");
  }
  // A stopped request never starts a backend — the CancelledError settles
  // the task, and with it the request, as cancelled, not failed.
  if (request.context != nullptr) request.context->throw_if_stopped();
  const graph::Graph& g = *request.graph;

  // Shared trivial guard: nothing to cut. The report still counts as a
  // solve of this backend's kind(s) so callers' per-kind accounting does
  // not depend on which parts happened to be trivial.
  if (g.num_nodes() < 2 || g.num_edges() == 0) {
    SolveReport report;
    report.cut.assignment.assign(static_cast<std::size_t>(g.num_nodes()), 0);
    report.cut.value = 0.0;
    report.solver = name();
    const auto [q, c] = solve_counts();
    report.quantum_solves = q;
    report.classical_solves = c;
    return report;
  }

  util::Timer timer;
  SolveReport report = do_solve(request);
  report.wall_seconds = timer.seconds();
  report.solver = name();
  if (report.quantum_solves + report.classical_solves == 0) {
    const auto [q, c] = solve_counts();
    report.quantum_solves = q;
    report.classical_solves = c;
  }
  // An armed evaluation budget is shared by every solve of the request:
  // the evaluations a leaf reports are charged back so the NEXT solve of
  // the same request sees a smaller remainder. A combinator's children each
  // went through this same path already, so charging its aggregated count
  // again would double-bill the budget.
  if (request.context != nullptr && children().empty()) {
    request.context->charge_evals(report.evaluations);
  }
  return report;
}

}  // namespace qq::solver
