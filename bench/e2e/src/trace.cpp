#include "trace.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "solver/registry.hpp"
#include "solver/solver.hpp"

namespace e2e {

namespace {

using qq::solver::Solver;
using qq::solver::SolveReport;
using qq::solver::SolveRequest;

const std::chrono::steady_clock::time_point g_origin =
    std::chrono::steady_clock::now();

int thread_ordinal() {
  static std::atomic<int> next{1};
  thread_local const int ordinal = next.fetch_add(1);
  return ordinal;
}

/// Forwards every call to the wrapped solver and records a span around
/// the solve. It is a leaf to the pipeline (no children), so a decorated
/// best-of must wrap each child instead.
class TimedSolver final : public Solver {
 public:
  TimedSolver(Role role, qq::solver::SolverPtr inner)
      : role_(role), inner_(std::move(inner)) {}

  std::string_view name() const noexcept override { return inner_->name(); }
  qq::sched::ResourceKind resource_kind() const noexcept override {
    return inner_->resource_kind();
  }
  std::pair<int, int> solve_counts() const override {
    return inner_->solve_counts();
  }
  int warm_start_dimension() const noexcept override {
    return inner_->warm_start_dimension();
  }

 protected:
  SolveReport do_solve(const SolveRequest& request) const override {
    LeafSpan span;
    span.start_s = now_s();
    SolveReport report = inner_->solve(request);
    span.end_s = now_s();
    span.role = role_;
    span.quantum = inner_->resource_kind() == qq::sched::ResourceKind::kQuantum;
    span.nodes = request.graph->num_nodes();
    span.thread = thread_ordinal();
    const std::int64_t request_id = request_id_from_context(request.context);
    span.parent = request_id >= 0 ? request_id : span_log().parent();
    span.evaluations = report.evaluations;
    span.seed = request.seed;
    span.cut = report.cut;
    span_log().record(std::move(span), *request.graph);
    return report;
  }

 private:
  Role role_;
  qq::solver::SolverPtr inner_;
};

constexpr const char* kTimedNames[kNumRoles] = {"timed", "timed-coarse"};

// Far enough out that no run reaches a deadline, spaced widely enough that
// a request's elapsed time never blurs two ids.
constexpr double kDeadlineBaseS = 1e6;
constexpr double kDeadlineStrideS = 1e3;

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       g_origin)
      .count();
}

const char* role_name(Role role) noexcept {
  switch (role) {
    case Role::kSub: return "sub";
    case Role::kCoarse: return "coarse";
  }
  return "?";
}

void SpanLog::record(LeafSpan span, const qq::graph::Graph& g) {
  qq::util::MutexLock lock(mutex_);
  if (span.role == Role::kSub && kept_graphs_ < kKeptGraphs) {
    span.graph = std::make_shared<const qq::graph::Graph>(g);
    ++kept_graphs_;
  }
  spans_.push_back(std::move(span));
}

std::vector<LeafSpan> SpanLog::take() {
  qq::util::MutexLock lock(mutex_);
  kept_graphs_ = 0;
  return std::exchange(spans_, {});
}

SpanLog& span_log() {
  static SpanLog log;
  return log;
}

void register_timed_solvers() {
  qq::solver::SolverRegistry& registry = qq::solver::SolverRegistry::global();
  for (int r = 0; r < kNumRoles; ++r) {
    if (registry.contains(kTimedNames[r])) continue;
    const Role role = static_cast<Role>(r);
    registry.register_solver(
        kTimedNames[r],
        "bench decorator: solve with the child spec, record a leaf span",
        {{"<child>", "the wrapped solver spec, e.g. timed:qaoa:p=2"}},
        [role](const qq::solver::SolverRegistry& reg, std::string_view params,
               const qq::solver::SolverDefaults& defaults)
            -> qq::solver::SolverPtr {
          if (params.empty()) {
            throw std::invalid_argument("solver spec 'timed': no child spec");
          }
          return std::make_unique<TimedSolver>(role, reg.make(params, defaults));
        });
  }
}

std::string timed_spec(Role role, const std::string& spec) {
  return std::string(kTimedNames[static_cast<int>(role)]) + ":" + spec;
}

double request_deadline_seconds(std::int64_t request_id) {
  return kDeadlineBaseS + kDeadlineStrideS * static_cast<double>(request_id);
}

std::int64_t request_id_from_context(
    const qq::util::RequestContext* context) {
  if (context == nullptr || !context->has_deadline()) return -1;
  // remaining = base + id * stride - elapsed, with 0 < elapsed < stride.
  const double remaining = context->seconds_until_deadline();
  return static_cast<std::int64_t>(
             std::floor((remaining - kDeadlineBaseS) / kDeadlineStrideS)) +
         1;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<TraceEvent>& events) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    std::string line = "{\"name\": ";
    append_json_string(line, e.name);
    line += ", \"cat\": ";
    append_json_string(line, e.category);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  ", \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": %d, "
                  "\"tid\": %d",
                  e.start_s * 1e6, e.dur_s * 1e6, e.pid, e.tid);
    line += buf;
    line += ", \"args\": {" + e.args + "}}";
    std::fprintf(f, "%s%s\n", line.c_str(), i + 1 < events.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace e2e
