#include "fuzz/case_io.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace qq::fuzz {

namespace {

std::string fmt_weight(double w) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", w);
  return buf;
}

[[noreturn]] void bad_case(const std::string& what) {
  throw std::invalid_argument("fuzz case file: " + what);
}

}  // namespace

std::string to_case_file(const Scenario& scenario,
                         const std::vector<std::string>& comments) {
  std::ostringstream os;
  os << "# qq fuzz reproducer (replay: fuzz_solve --replay <this file>)\n";
  for (const std::string& c : comments) os << "# " << c << '\n';
  os << "kind " << probe_kind_name(scenario.kind) << '\n';
  if (!scenario.family.empty()) os << "family " << scenario.family << '\n';
  os << "scenario_seed " << scenario.scenario_seed << '\n';
  os << "solve_seed " << scenario.solve_seed << '\n';
  os << "spec " << scenario.spec << '\n';
  if (scenario.kind == ProbeKind::kQaoa2) {
    os << "deeper_spec " << scenario.deeper_spec << '\n';
    os << "merge_spec " << scenario.merge_spec << '\n';
    os << "max_qubits " << scenario.max_qubits << '\n';
  }
  os << "nodes " << scenario.graph.num_nodes() << '\n';
  for (const graph::Edge& e : scenario.graph.edges()) {
    os << "edge " << e.u << ' ' << e.v << ' ' << fmt_weight(e.w) << '\n';
  }
  os << "end\n";
  return os.str();
}

Scenario from_case_file(std::istream& in) {
  Scenario s;
  s.spec.clear();
  bool have_nodes = false, have_spec = false, ended = false;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream ls(line);
    std::string directive;
    if (!(ls >> directive)) continue;  // blank/comment line
    const std::string at = " (line " + std::to_string(line_no) + ")";
    if (directive == "end") {
      ended = true;
      break;
    } else if (directive == "kind") {
      std::string kind;
      if (!(ls >> kind)) bad_case("missing kind value" + at);
      if (kind == "solver") {
        s.kind = ProbeKind::kSolver;
      } else if (kind == "qaoa2") {
        s.kind = ProbeKind::kQaoa2;
      } else {
        bad_case("unknown kind '" + kind + "'" + at);
      }
    } else if (directive == "family") {
      ls >> s.family;
    } else if (directive == "scenario_seed") {
      if (!(ls >> s.scenario_seed)) bad_case("bad scenario_seed" + at);
    } else if (directive == "solve_seed") {
      if (!(ls >> s.solve_seed)) bad_case("bad solve_seed" + at);
    } else if (directive == "spec" || directive == "deeper_spec" ||
               directive == "merge_spec") {
      // Specs may contain any non-newline characters (that is the point of
      // the grammar fuzzer), so take the rest of the line verbatim.
      std::string rest;
      std::getline(ls, rest);
      const std::size_t start = rest.find_first_not_of(" \t");
      rest = start == std::string::npos ? std::string() : rest.substr(start);
      const std::size_t last = rest.find_last_not_of(" \t\r");
      rest = last == std::string::npos ? std::string() : rest.substr(0, last + 1);
      if (rest.empty()) bad_case("empty " + directive + at);
      if (directive == "spec") {
        s.spec = rest;
        have_spec = true;
      } else if (directive == "deeper_spec") {
        s.deeper_spec = rest;
      } else {
        s.merge_spec = rest;
      }
    } else if (directive == "max_qubits") {
      if (!(ls >> s.max_qubits)) bad_case("bad max_qubits" + at);
    } else if (directive == "nodes") {
      long long n = -1;
      if (!(ls >> n) || n < 0 || n > 1'000'000) bad_case("bad nodes" + at);
      s.graph = graph::Graph(static_cast<graph::NodeId>(n));
      have_nodes = true;
    } else if (directive == "edge") {
      if (!have_nodes) bad_case("edge before nodes" + at);
      long long u = -1, v = -1;
      double w = 0.0;
      if (!(ls >> u >> v >> w)) bad_case("bad edge" + at);
      try {
        s.graph.add_edge(static_cast<graph::NodeId>(u),
                         static_cast<graph::NodeId>(v), w);
      } catch (const std::exception& e) {
        bad_case(std::string("invalid edge: ") + e.what() + at);
      }
    } else {
      bad_case("unknown directive '" + directive + "'" + at);
    }
  }
  if (!ended) bad_case("missing 'end' line");
  if (!have_nodes) bad_case("missing 'nodes' line");
  if (!have_spec) bad_case("missing 'spec' line");
  if (s.kind == ProbeKind::kQaoa2) {
    if (s.deeper_spec.empty()) s.deeper_spec = s.spec;
    if (s.merge_spec.empty()) s.merge_spec = "greedy";
  }
  return s;
}

Scenario from_case_string(const std::string& text) {
  std::istringstream in(text);
  return from_case_file(in);
}

Scenario load_case_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("fuzz case file: cannot open '" + path + "'");
  }
  return from_case_file(in);
}

std::string reproducer_snippet(const Scenario& scenario,
                               const std::vector<Violation>& violations) {
  std::ostringstream os;
  os << "// Reproducer for a fuzz finding (scenario_seed "
     << scenario.scenario_seed << ", family '" << scenario.family << "').\n";
  for (const Violation& v : violations) {
    os << "// violated: [" << v.oracle << "] " << v.details << '\n';
  }
  os << "#include <cstdio>\n"
     << "#include \"maxcut/cut.hpp\"\n"
     << "#include \"qaoa2/qaoa2.hpp\"\n"
     << "#include \"qgraph/graph.hpp\"\n"
     << "#include \"solver/registry.hpp\"\n\n"
     << "int main() {\n"
     << "  qq::graph::Graph g(" << scenario.graph.num_nodes() << ");\n";
  for (const graph::Edge& e : scenario.graph.edges()) {
    os << "  g.add_edge(" << e.u << ", " << e.v << ", " << fmt_weight(e.w)
       << ");\n";
  }
  if (scenario.kind == ProbeKind::kSolver) {
    os << "  const auto solver =\n"
       << "      qq::solver::SolverRegistry::global().make(\"" << scenario.spec
       << "\");\n"
       << "  const auto report = solver->solve({&g, " << scenario.solve_seed
       << "ULL});\n"
       << "  std::printf(\"value=%.17g recount=%.17g\\n\", report.cut.value,\n"
       << "              qq::maxcut::cut_value(g, report.cut.assignment));\n";
  } else {
    os << "  qq::qaoa2::Qaoa2Options opts;\n"
       << "  opts.max_qubits = " << scenario.max_qubits << ";\n"
       << "  opts.sub_solver_spec = \"" << scenario.spec << "\";\n"
       << "  opts.deeper_solver_spec = \"" << scenario.deeper_spec << "\";\n"
       << "  opts.merge_solver_spec = \"" << scenario.merge_spec << "\";\n"
       << "  opts.seed = " << scenario.solve_seed << "ULL;\n"
       << "  const auto result = qq::qaoa2::solve_qaoa2(g, opts);\n"
       << "  std::printf(\"value=%.17g recount=%.17g\\n\", result.cut.value,\n"
       << "              qq::maxcut::cut_value(g, result.cut.assignment));\n";
  }
  os << "  return 0;\n}\n";
  return os.str();
}

}  // namespace qq::fuzz
