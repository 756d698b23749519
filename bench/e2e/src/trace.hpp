#pragma once
// Bench-side tracing for the traced run (README "Reading a trace"): a
// `timed` decorator solver that records one span per leaf solve, the span
// log it writes to, and a Chrome trace-event writer. Nothing here reaches
// inside src/; spans are taken around the public Solver::solve calls the
// QAOA^2 pipeline and the service already make.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "maxcut/cut.hpp"
#include "qgraph/graph.hpp"
#include "util/cancellation.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace e2e {

/// Steady-clock seconds since process start.
double now_s();

/// Which QAOA^2 solver role a leaf span belongs to. Direct service solves
/// count as kSub: a graph that fits the device is a level-0 leaf. kCoarse
/// covers the deeper-level and final merge solves, both GW here; pp16_r16
/// never partitions a deeper level, so a separate deeper role would read
/// 0 there on every run.
enum class Role : std::uint8_t { kSub = 0, kCoarse };
inline constexpr int kNumRoles = 2;
const char* role_name(Role role) noexcept;

struct LeafSpan {
  Role role = Role::kSub;
  bool quantum = false;
  int nodes = 0;
  int thread = 0;           ///< small per-thread ordinal (trace tid)
  std::int64_t parent = -1;  ///< solve or request id
  double start_s = 0.0;
  double end_s = 0.0;
  int evaluations = 0;
  std::uint64_t seed = 0;
  qq::maxcut::CutResult cut;
  /// Copy of the leaf graph, kept for the first kKeptGraphs sub leaves of
  /// a pass so the solo replays run on the workload's own leaves.
  std::shared_ptr<const qq::graph::Graph> graph;
};

class SpanLog {
 public:
  static constexpr std::size_t kKeptGraphs = 48;

  /// Parent of spans recorded without a request context (closed loops set
  /// it to the current solve's id).
  void set_parent(std::int64_t id) noexcept {
    parent_.store(id, std::memory_order_relaxed);
  }
  std::int64_t parent() const noexcept {
    return parent_.load(std::memory_order_relaxed);
  }

  void record(LeafSpan span, const qq::graph::Graph& g);
  /// Every span since the last take(); resets the kept-graph budget.
  std::vector<LeafSpan> take();

 private:
  std::atomic<std::int64_t> parent_{-1};
  qq::util::Mutex mutex_;
  std::vector<LeafSpan> spans_ QQ_GUARDED_BY(mutex_);
  std::size_t kept_graphs_ QQ_GUARDED_BY(mutex_) = 0;
};

SpanLog& span_log();

/// Registers the decorators "timed" (sub role) and "timed-coarse" with the
/// global solver registry: "timed:qaoa:p=2" solves exactly like "qaoa:p=2"
/// and records a LeafSpan per call. Idempotent.
void register_timed_solvers();

/// The decorated form of `spec` for `role`.
std::string timed_spec(Role role, const std::string& spec);

/// Service requests carry their id in a far-future deadline that never
/// trips, so a leaf span can name its request through
/// SolveRequest::context alone (README "Reading a trace").
double request_deadline_seconds(std::int64_t request_id);
/// Inverse of request_deadline_seconds; -1 without a context or deadline.
std::int64_t request_id_from_context(const qq::util::RequestContext* context);

struct TraceEvent {
  std::string name;
  std::string category;
  double start_s = 0.0;
  double dur_s = 0.0;
  int pid = 1;
  int tid = 0;
  std::string args;  ///< JSON object body without braces; may be empty
};

/// Writes `events` as a Chrome trace-event JSON file (chrome://tracing,
/// Perfetto). Returns false when the file cannot be written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<TraceEvent>& events);

}  // namespace e2e
