#pragma once
// Multi-tenant solve service — the long-lived front door above the solver
// registry and the QAOA^2 pipeline (ROADMAP item 1). Many concurrent
// requests (graph + registry specs + workload class + optional deadline /
// evaluation budget) multiplex ONE persistent sched::WorkflowEngine:
//
//   submit -> validate spec -> ADMIT (bounded queues, typed rejection)
//          -> decompose (QAOA^2 streaming pipeline when the graph exceeds
//             the device, one direct solver task otherwise)
//          -> tasks tagged with the tenant's fair-share class and the
//             request's cancellation group
//          -> finalize exactly once (completed / cancelled / failed)
//
// Fairness is the engine's start-time fair queuing over per-class virtual
// time (modeled on ClickHouse's workload resource manager): a weight-3
// tenant drains ~3x the work of a weight-1 tenant under contention.
// Cancellation is cooperative at two grains: the request's group cancels
// every still-queued task at task-graph boundaries, and the
// util::RequestContext stops long COBYLA loops / anneal sweeps / GW
// slicings MID-solve. Deadlines and evaluation budgets ride the same
// context. Admission control rejects — with a typed reason — instead of
// queuing unboundedly, and shutdown drains gracefully (or cancels
// everything in flight first: shutdown_now). A request's spec strings carry
// every solver setting and name its cache entries; the service adds no
// solver or cache setting of its own, and wait() returns only once a
// settled request is counted in stats().

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/solve_cache.hpp"
#include "maxcut/cut.hpp"
#include "qgraph/graph.hpp"
#include "sched/engine.hpp"
#include "util/cancellation.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace qq::service {

/// One tenant / workload class: a name requests select by, a fair-share
/// weight (the engine-level SFQ weight) and a per-class admission bound.
struct WorkloadClassConfig {
  std::string name = "default";
  double weight = 1.0;
  /// Maximum requests of this class in flight at once; excess is rejected
  /// with RejectReason::kOverloaded.
  std::size_t max_in_flight = 64;
};

struct ServiceOptions {
  /// The one engine the service owns (slot caps = the simulated cluster).
  sched::EngineOptions engine;
  /// Workload classes; empty means a single "default" class (weight 1).
  /// Requests name their class; an unknown name is rejected as invalid.
  std::vector<WorkloadClassConfig> classes;
  /// Global admission bound across every class.
  std::size_t max_in_flight_requests = 256;
  /// Fleet-wide solve cache the service owns (ROADMAP item 4): every
  /// leaf/coarse/direct solve routes through it, so a hot subgraph is
  /// solved once per fleet, not once per request. Engaged by default —
  /// keys include the seed, so results are bit-for-bit identical to the
  /// uncached service. nullopt disables caching entirely.
  std::optional<cache::CacheOptions> cache = cache::CacheOptions{};
};

/// One solve request. The graph is OWNED by the request (the service keeps
/// it alive until the request settles — callers need not).
struct ServiceRequest {
  graph::Graph graph;
  /// Registry spec of the (sub-)solver: "qaoa:p=2", "best:qaoa|gw", ...
  std::string solver_spec = "qaoa";
  /// Deeper-level / merge specs of a decomposed solve; empty selects the
  /// QAOA^2 defaults ("gw" / "qaoa").
  std::string deeper_spec;
  std::string merge_spec;
  /// Workload class name; empty selects the first configured class.
  std::string workload_class;
  std::uint64_t seed = 0;
  /// Qubit budget: a graph larger than this decomposes through the QAOA^2
  /// streaming pipeline; one that fits (or max_qubits == 0) dispatches as
  /// a single solver task.
  int max_qubits = 0;
  /// Wall-clock deadline from admission; expiry cancels the request
  /// (StopReason::kDeadline) at the next cooperative checkpoint. A
  /// non-positive deadline is rejected as kDeadlineInfeasible.
  std::optional<double> deadline_seconds;
  /// Objective-evaluation budget shared by every solve of the request;
  /// exhaustion stops it (StopReason::kBudget).
  std::optional<std::int64_t> eval_budget;
};

enum class RequestStatus : std::uint8_t {
  kPending,    ///< admitted, not yet settled
  kCompleted,  ///< solved; the outcome carries the cut
  kCancelled,  ///< stopped: explicit cancel, deadline, or budget
  kFailed,     ///< a task errored
  kRejected,   ///< never admitted; see RejectReason
};

enum class RejectReason : std::uint8_t {
  kNone = 0,
  kOverloaded,          ///< global or per-class in-flight bound hit
  kDeadlineInfeasible,  ///< non-positive deadline
  kInvalidRequest,      ///< malformed spec / unknown class / bad graph
  kShuttingDown,        ///< service no longer admits
};

const char* request_status_name(RequestStatus status) noexcept;
const char* reject_reason_name(RejectReason reason) noexcept;

/// Terminal state of a request (valid once status != kPending).
struct RequestOutcome {
  RequestStatus status = RequestStatus::kPending;
  RejectReason reject_reason = RejectReason::kNone;
  /// Why a kCancelled request stopped (cancel / deadline / budget).
  util::StopReason stop_reason = util::StopReason::kNone;
  maxcut::CutResult cut;       ///< valid when kCompleted
  std::string error;           ///< what() of the first task error (kFailed)
  int engine_tasks = 0;        ///< tasks this request put on the engine
  double latency_seconds = 0;  ///< admission -> settle wall time
};

namespace detail {
struct RequestRecord;
}  // namespace detail

/// Caller-side handle to one submitted request. Copyable; the underlying
/// record lives until every ticket is gone, even after the service drops
/// it.
class RequestTicket {
 public:
  RequestTicket() = default;

  bool valid() const noexcept { return rec_ != nullptr; }
  std::uint64_t id() const noexcept;
  RequestStatus status() const;
  /// True once the request has settled (any terminal status).
  bool done() const;
  /// Terminal outcome; throws std::logic_error while still pending.
  RequestOutcome outcome() const;

 private:
  friend class SolveService;
  explicit RequestTicket(std::shared_ptr<detail::RequestRecord> rec)
      : rec_(std::move(rec)) {}

  std::shared_ptr<detail::RequestRecord> rec_;
};

/// Per-class load/latency snapshot (ServiceStats).
struct ClassLoad {
  std::string name;
  double weight = 1.0;
  std::size_t submitted = 0;  ///< admission attempts naming this class
  std::size_t in_flight = 0;
  std::size_t completed = 0;
  std::size_t cancelled = 0;
  std::size_t failed = 0;
  std::size_t rejected = 0;
  double p50_seconds = 0.0;  ///< completed-request latency percentiles
  double p95_seconds = 0.0;
  double p99_seconds = 0.0;
  /// Engine-side: Σ service time of this class's tasks, Σ slot/queue wait.
  double busy_seconds = 0.0;
  double queue_wait_seconds = 0.0;
  /// Cache-side per-class sharing counters (zero when the service runs
  /// uncached): leaf solves answered from the cache, solved cold, and
  /// coalesced onto another request's in-flight fill.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_coalesced = 0;
};

struct ServiceStats {
  std::vector<ClassLoad> classes;
  std::size_t in_flight = 0;
  std::size_t completed = 0;
  std::size_t cancelled = 0;
  std::size_t failed = 0;
  std::size_t rejected = 0;
  sched::EngineStats engine;  ///< gauges included (ready/in-flight per kind)
  bool cache_enabled = false;
  cache::CacheStats cache;  ///< totals + entry/in-flight gauges
};

/// Render `stats` as the live-observability table (one row per class plus
/// totals and engine gauges).
std::string render_stats(const ServiceStats& stats);

class SolveService {
 public:
  explicit SolveService(const ServiceOptions& options);
  /// shutdown_now(): cancels everything in flight, drains, then destroys
  /// the engine.
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  const ServiceOptions& options() const noexcept { return options_; }
  /// The engine requests multiplex (exposed for cooperative waiting and
  /// tests; submitting unrelated tasks is allowed — they run as class 0).
  sched::WorkflowEngine& engine() noexcept { return *engine_; }
  /// The service-owned solve cache; null when options().cache is nullopt.
  cache::SolveCache* solve_cache() noexcept { return cache_.get(); }

  /// Validate, admit, decompose, and start `request`. Never blocks on
  /// capacity: over-capacity (or invalid / post-shutdown) requests return
  /// an immediately-settled kRejected ticket with a typed reason.
  RequestTicket submit(ServiceRequest request);

  /// Request cooperative cancellation: still-queued tasks cancel at once,
  /// running solves stop at their next poll. Returns false when the
  /// request had already settled. Does not block on the request settling.
  bool cancel(const RequestTicket& ticket);

  /// Block until `ticket` settles AND the service has recorded it in
  /// stats(), donating this thread to the engine meanwhile (safe to call
  /// from anywhere, including many waiters).
  void wait(const RequestTicket& ticket);

  /// Wait until the service is quiescent: every admitted request settled
  /// AND its bookkeeping finished (requests admitted while draining are
  /// waited on too).
  void drain();

  /// Stop admitting (subsequent submits reject with kShuttingDown), then
  /// drain gracefully.
  void shutdown();

  /// Stop admitting and cancel every request in flight, then drain.
  void shutdown_now();

  ServiceStats stats() const;

 private:
  struct ClassState;

  RequestTicket reject(std::shared_ptr<detail::RequestRecord> rec,
                       RejectReason reason);
  void finalize(const std::shared_ptr<detail::RequestRecord>& rec,
                std::exception_ptr err, maxcut::CutResult cut,
                int engine_tasks);
  std::vector<std::shared_ptr<detail::RequestRecord>> live_snapshot() const;

  ServiceOptions options_;
  std::unique_ptr<sched::WorkflowEngine> engine_;
  /// Owned solve cache (internally synchronized); created before the
  /// classes, outlives every in-flight solve. Null when caching is off.
  std::unique_ptr<cache::SolveCache> cache_;
  /// The vector and each ClassState's config/engine_class are immutable
  /// after construction; the mutable per-class counters inside are guarded
  /// by mutex_ (inexpressible per-field through the unique_ptr — enforced
  /// by review and the TSan leg, not the analysis).
  std::vector<std::unique_ptr<ClassState>> classes_;

  /// Lock order: mutex_ (or a record's mutex) before any engine lock,
  /// never the reverse — finalize/stats release mutex_ before touching the
  /// engine.
  mutable util::Mutex mutex_;
  /// Signalled when in_flight_ reaches zero — the quiescence point drain()
  /// (and so the destructor) waits for; see finalize().
  util::CondVar drained_cv_;
  bool accepting_ QQ_GUARDED_BY(mutex_) = true;
  std::uint64_t next_id_ QQ_GUARDED_BY(mutex_) = 1;
  std::size_t in_flight_ QQ_GUARDED_BY(mutex_) = 0;
  std::size_t completed_ QQ_GUARDED_BY(mutex_) = 0;
  std::size_t cancelled_ QQ_GUARDED_BY(mutex_) = 0;
  std::size_t failed_ QQ_GUARDED_BY(mutex_) = 0;
  std::size_t rejected_ QQ_GUARDED_BY(mutex_) = 0;
  std::vector<std::shared_ptr<detail::RequestRecord>> live_
      QQ_GUARDED_BY(mutex_);
};

}  // namespace qq::service
