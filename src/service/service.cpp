#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "qaoa2/qaoa2.hpp"
#include "solver/registry.hpp"
#include "util/mutex.hpp"
#include "util/table.hpp"
#include "util/thread_annotations.hpp"

namespace qq::service {

namespace detail {

/// Shared state of one request; co-owned by the service (while live), every
/// RequestTicket copy, and the in-flight task callbacks.
struct RequestRecord {
  std::uint64_t id = 0;
  /// Index into SolveService's class table; npos for "no class resolved"
  /// (rejected before admission).
  static constexpr std::size_t kNoClass = static_cast<std::size_t>(-1);
  std::size_t class_index = kNoClass;
  sched::ClassId engine_class = 0;
  util::RequestContext context;
  ServiceRequest request;  ///< owns the graph for the request's lifetime
  std::unique_ptr<qaoa2::Qaoa2Driver> driver;  ///< decomposed dispatch
  solver::SolverPtr direct;                    ///< single-task dispatch
  maxcut::CutResult direct_cut;  ///< written by the one direct task
  double admit_s = 0.0;          ///< engine clock at admission

  mutable util::Mutex mutex;
  util::CondVar cv;
  sched::GroupId group QQ_GUARDED_BY(mutex) = sched::kNoGroup;
  /// Keepalive of a decomposed solve; dropped at finalize.
  std::shared_ptr<qaoa2::StreamPipeline> pipeline QQ_GUARDED_BY(mutex);
  RequestOutcome outcome QQ_GUARDED_BY(mutex);
  /// Set once the service has finished recording the settled request (its
  /// stats() counters included); wait() returns on this, not on status.
  bool finalized QQ_GUARDED_BY(mutex) = false;

  bool settled_locked() const QQ_REQUIRES(mutex) {
    return outcome.status != RequestStatus::kPending;
  }
};

}  // namespace detail

using detail::RequestRecord;

namespace {

/// Completed-request latencies retained per class for the percentile stats
/// (a ring; older samples fall out).
constexpr std::size_t kLatencyWindow = 512;

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const std::size_t k = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(k),
                   values.end());
  return values[k];
}

}  // namespace

const char* request_status_name(RequestStatus status) noexcept {
  switch (status) {
    case RequestStatus::kPending: return "pending";
    case RequestStatus::kCompleted: return "completed";
    case RequestStatus::kCancelled: return "cancelled";
    case RequestStatus::kFailed: return "failed";
    case RequestStatus::kRejected: return "rejected";
  }
  return "?";
}

const char* reject_reason_name(RejectReason reason) noexcept {
  switch (reason) {
    case RejectReason::kNone: return "none";
    case RejectReason::kOverloaded: return "overloaded";
    case RejectReason::kDeadlineInfeasible: return "deadline-infeasible";
    case RejectReason::kInvalidRequest: return "invalid-request";
    case RejectReason::kShuttingDown: return "shutting-down";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// RequestTicket

std::uint64_t RequestTicket::id() const noexcept {
  return rec_ != nullptr ? rec_->id : 0;
}

RequestStatus RequestTicket::status() const {
  if (rec_ == nullptr) {
    throw std::logic_error("RequestTicket::status: empty ticket");
  }
  util::MutexLock lock(rec_->mutex);
  return rec_->outcome.status;
}

bool RequestTicket::done() const {
  return status() != RequestStatus::kPending;
}

RequestOutcome RequestTicket::outcome() const {
  if (rec_ == nullptr) {
    throw std::logic_error("RequestTicket::outcome: empty ticket");
  }
  util::MutexLock lock(rec_->mutex);
  if (!rec_->settled_locked()) {
    throw std::logic_error("RequestTicket::outcome: request still pending");
  }
  return rec_->outcome;
}

// ---------------------------------------------------------------------------
// SolveService

/// Per-class service-side state (admission counts + latency ring). The
/// engine-side counters (busy seconds, queue wait, fair-share accounting)
/// live in the engine's FairClassStats and are joined in stats().
struct SolveService::ClassState {
  WorkloadClassConfig config;
  sched::ClassId engine_class = 0;
  /// Cache-side class id for per-class hit/miss attribution; kNoClass when
  /// the service runs uncached or the cache's class table is full.
  int cache_class = cache::SolveCache::kNoClass;
  std::size_t submitted = 0;
  std::size_t in_flight = 0;
  std::size_t completed = 0;
  std::size_t cancelled = 0;
  std::size_t failed = 0;
  std::size_t rejected = 0;
  /// Completed-request latency ring (seconds), newest overwrites oldest.
  std::vector<double> latencies;
  std::size_t latency_pos = 0;
};

SolveService::SolveService(const ServiceOptions& options)
    : options_(options),
      engine_(std::make_unique<sched::WorkflowEngine>(options.engine)) {
  if (options_.cache) {
    cache_ = std::make_unique<cache::SolveCache>(*options_.cache);
  }
  std::vector<WorkloadClassConfig> configs = options.classes;
  if (configs.empty()) configs.push_back(WorkloadClassConfig{});
  classes_.reserve(configs.size());
  for (WorkloadClassConfig& config : configs) {
    for (const auto& existing : classes_) {
      if (existing->config.name == config.name) {
        throw std::invalid_argument("SolveService: duplicate class name '" +
                                    config.name + "'");
      }
    }
    auto state = std::make_unique<ClassState>();
    sched::FairClassConfig fair;
    fair.name = config.name;
    fair.weight = config.weight;  // add_class validates weight > 0
    state->engine_class = engine_->add_class(std::move(fair));
    if (cache_ != nullptr) {
      state->cache_class = cache_->register_class(config.name);
    }
    state->config = std::move(config);
    classes_.push_back(std::move(state));
  }
}

SolveService::~SolveService() {
  shutdown_now();
  // The engine destructor drains whatever shutdown_now's cancellations
  // left running; every request has settled by then, so no task callback
  // can touch the service after this returns.
  engine_.reset();
}

RequestTicket SolveService::reject(std::shared_ptr<RequestRecord> rec,
                                   RejectReason reason) {
  {
    util::MutexLock lock(rec->mutex);
    rec->outcome.status = RequestStatus::kRejected;
    rec->outcome.reject_reason = reason;
    // Not yet visible to any waiter: the ticket is returned below, after
    // the counters are in.
    rec->finalized = true;
  }
  {
    util::MutexLock lock(mutex_);
    ++rejected_;
    if (rec->class_index != RequestRecord::kNoClass) {
      ++classes_[rec->class_index]->rejected;
    }
  }
  return RequestTicket(std::move(rec));
}

RequestTicket SolveService::submit(ServiceRequest request) {
  auto rec = std::make_shared<RequestRecord>();
  rec->request = std::move(request);
  const ServiceRequest& req = rec->request;

  // Resolve the workload class (empty name = the first configured class).
  if (req.workload_class.empty()) {
    rec->class_index = 0;
  } else {
    for (std::size_t i = 0; i < classes_.size(); ++i) {
      if (classes_[i]->config.name == req.workload_class) {
        rec->class_index = i;
        break;
      }
    }
    if (rec->class_index == RequestRecord::kNoClass) {
      return reject(std::move(rec), RejectReason::kInvalidRequest);
    }
  }
  ClassState& cls = *classes_[rec->class_index];
  rec->engine_class = cls.engine_class;

  // Validate the solver spec up front by building the solver/driver — a
  // malformed spec must reject, not fail mid-flight.
  const bool decomposed =
      req.max_qubits > 0 && req.graph.num_nodes() > req.max_qubits;
  cache::CachePolicy cache_policy;
  cache_policy.class_id = cls.cache_class;
  try {
    if (decomposed) {
      qaoa2::Qaoa2Options qopts;
      qopts.max_qubits = req.max_qubits;
      qopts.sub_solver_spec = req.solver_spec;
      if (!req.deeper_spec.empty()) qopts.deeper_solver_spec = req.deeper_spec;
      if (!req.merge_spec.empty()) qopts.merge_solver_spec = req.merge_spec;
      qopts.seed = req.seed;
      qopts.solve_cache = cache_.get();
      qopts.cache_policy = cache_policy;
      rec->driver = std::make_unique<qaoa2::Qaoa2Driver>(qopts);
    } else {
      rec->direct = solver::SolverRegistry::global().make(req.solver_spec);
    }
  } catch (const std::invalid_argument&) {
    return reject(std::move(rec), RejectReason::kInvalidRequest);
  }

  // Deadline feasibility: a non-positive deadline has already expired.
  if (req.deadline_seconds && *req.deadline_seconds <= 0.0) {
    return reject(std::move(rec), RejectReason::kDeadlineInfeasible);
  }

  // Admission: bounded queues, typed rejection, never blocking. The
  // decision leaves the critical section as a local — reject() retakes
  // mutex_, and rec->outcome is rec->mutex territory, not mutex_'s.
  RejectReason admission = RejectReason::kNone;
  {
    util::MutexLock lock(mutex_);
    ++cls.submitted;
    if (!accepting_) {
      admission = RejectReason::kShuttingDown;
    } else if (in_flight_ < options_.max_in_flight_requests &&
               cls.in_flight < cls.config.max_in_flight) {
      rec->id = next_id_++;
      ++in_flight_;
      ++cls.in_flight;
      live_.push_back(rec);
    } else {
      admission = RejectReason::kOverloaded;
    }
  }
  if (admission != RejectReason::kNone) {
    return reject(std::move(rec), admission);
  }

  // Admitted. Arm the stop state and start the task graph. Settle
  // callbacks may fire on other threads before submit() returns — every
  // field they read is set before the first engine submission.
  rec->admit_s = engine_->now();
  if (req.deadline_seconds) rec->context.set_deadline_after(*req.deadline_seconds);
  if (req.eval_budget) rec->context.arm_eval_budget(*req.eval_budget);
  // The group id lives on as a local: the engine call stays outside
  // rec->mutex (lock order: record mutex before engine mutex, and
  // solve_async may settle synchronously through finalize).
  const sched::GroupId group = engine_->open_group();
  {
    util::MutexLock lock(rec->mutex);
    rec->group = group;
  }

  if (decomposed) {
    qaoa2::SolveTags tags;
    tags.fair_class = rec->engine_class;
    tags.group = group;
    tags.context = &rec->context;
    auto pipeline = rec->driver->solve_async(
        *engine_, rec->request.graph, tags,
        [this, rec](qaoa2::Qaoa2Result result, std::exception_ptr err) {
          finalize(rec, err, std::move(result.cut), result.engine_tasks);
        });
    util::MutexLock lock(rec->mutex);
    // The keepalive matters only while pending; a request that already
    // settled (fast solve or instant cancel) must not re-create the
    // rec -> pipeline -> done -> rec cycle finalize just broke.
    if (!rec->settled_locked()) rec->pipeline = std::move(pipeline);
  } else {
    sched::Task task;
    task.kind = rec->direct->resource_kind();
    task.fair_class = rec->engine_class;
    task.group = group;
    // The spec string alone identifies the solver configuration — it is
    // the cache key, as for the driver's roles.
    cache::SolveCache* solve_cache = cache_.get();
    task.work = [rec, solve_cache, cache_policy] {
      rec->context.throw_if_stopped();
      solver::SolveRequest sreq;
      sreq.graph = &rec->request.graph;
      sreq.seed = rec->request.seed;
      sreq.context = &rec->context;
      rec->direct_cut =
          solve_cache == nullptr
              ? rec->direct->solve(sreq).cut
              : solve_cache
                    ->solve_through(*rec->direct, sreq,
                                    rec->request.solver_spec, cache_policy)
                    .cut;
      // A backend stopped mid-solve returns its best-so-far; the boundary
      // re-check maps the request to kCancelled, not kCompleted.
      rec->context.throw_if_stopped();
    };
    task.on_settled = [this, rec](std::exception_ptr err) {
      finalize(rec, err, std::move(rec->direct_cut), 1);
    };
    engine_->submit(std::move(task));
  }
  return RequestTicket(std::move(rec));
}

void SolveService::finalize(const std::shared_ptr<RequestRecord>& rec,
                            std::exception_ptr err, maxcut::CutResult cut,
                            int engine_tasks) {
  RequestStatus status;
  // Locals carried out of the record's critical section: the class-table
  // update below runs under mutex_ (never both locks at once), and the
  // engine call between the two runs under neither.
  double latency = 0.0;
  sched::GroupId group = sched::kNoGroup;
  {
    util::MutexLock lock(rec->mutex);
    if (rec->settled_locked()) return;
    RequestOutcome& out = rec->outcome;
    if (err == nullptr) {
      status = RequestStatus::kCompleted;
      out.cut = std::move(cut);
    } else {
      try {
        std::rethrow_exception(err);
      } catch (const util::CancelledError& cancelled) {
        status = RequestStatus::kCancelled;
        out.stop_reason = cancelled.reason();
      } catch (const std::exception& e) {
        // A request stopped mid-solve can surface any wrapped error; the
        // context is the authority on whether this was a stop or a fault.
        if (rec->context.stopped()) {
          status = RequestStatus::kCancelled;
          out.stop_reason = rec->context.stop_reason();
        } else {
          status = RequestStatus::kFailed;
          out.error = e.what();
        }
      } catch (...) {
        status = RequestStatus::kFailed;
        out.error = "unknown error";
      }
    }
    out.status = status;
    out.engine_tasks = engine_tasks;
    out.latency_seconds = engine_->now() - rec->admit_s;
    latency = out.latency_seconds;
    group = rec->group;
    rec->pipeline.reset();
  }

  // The ticket's status is now terminal, but the service must not be torn
  // down yet: drain() (and so the destructor) waits for in_flight_ to
  // reach zero, and this function keeps touching the engine and the class
  // tables until then. Everything service-owned is finished BEFORE the
  // in_flight_ decrement below; after that locked block only the record
  // is touched.
  engine_->close_group(group);

  {
    util::MutexLock lock(mutex_);
    ClassState& cls = *classes_[rec->class_index];
    --in_flight_;
    --cls.in_flight;
    switch (status) {
      case RequestStatus::kCompleted:
        ++completed_;
        ++cls.completed;
        if (cls.latencies.size() < kLatencyWindow) {
          cls.latencies.push_back(latency);
        } else {
          cls.latencies[cls.latency_pos] = latency;
          cls.latency_pos = (cls.latency_pos + 1) % kLatencyWindow;
        }
        break;
      case RequestStatus::kCancelled:
        ++cancelled_;
        ++cls.cancelled;
        break;
      default:
        ++failed_;
        ++cls.failed;
        break;
    }
    live_.erase(std::remove(live_.begin(), live_.end(), rec), live_.end());
    if (in_flight_ == 0) drained_cv_.notify_all();
  }
  // Release wait(): the request is now settled AND counted in stats().
  {
    util::MutexLock lock(rec->mutex);
    rec->finalized = true;
  }
  rec->cv.notify_all();
}

bool SolveService::cancel(const RequestTicket& ticket) {
  if (!ticket.valid()) return false;
  const std::shared_ptr<RequestRecord>& rec = ticket.rec_;
  sched::GroupId group;
  {
    util::MutexLock lock(rec->mutex);
    if (rec->settled_locked()) return false;
    group = rec->group;
  }
  rec->context.cancel();
  // Queued tasks cancel right here (their settles — possibly the request's
  // finalize — run on THIS thread); running ones observe the context at
  // their next poll and settle on their own threads.
  engine_->cancel_group(group);
  return true;
}

void SolveService::wait(const RequestTicket& ticket) {
  if (!ticket.valid()) {
    throw std::logic_error("SolveService::wait: empty ticket");
  }
  const std::shared_ptr<RequestRecord>& rec = ticket.rec_;
  for (;;) {
    {
      util::MutexLock lock(rec->mutex);
      if (rec->finalized) return;
    }
    // Donate this thread to the engine; nap only when nothing is
    // claimable (everything dispatched is already running elsewhere).
    // Predicate-free wait: the top of the loop re-checks finalized under
    // the lock, so a missed 1 ms nap costs latency, never correctness.
    if (!engine_->try_run_one()) {
      util::MutexLock lock(rec->mutex);
      if (!rec->finalized) {
        rec->cv.wait_for(lock, std::chrono::milliseconds(1));
      }
    }
  }
}

std::vector<std::shared_ptr<RequestRecord>> SolveService::live_snapshot()
    const {
  util::MutexLock lock(mutex_);
  return live_;
}

void SolveService::drain() {
  // Quiescence, not just settled tickets: a request's status turns
  // terminal slightly before its finalize finishes the service-side
  // bookkeeping on whichever thread settled it. The destructor relies on
  // drain(), so it must wait for in_flight_ == 0 — past which no finalize
  // touches the engine or the class tables — not merely for every ticket
  // to read as done.
  for (;;) {
    for (const auto& rec : live_snapshot()) wait(RequestTicket(rec));
    util::MutexLock lock(mutex_);
    if (in_flight_ == 0) return;
    drained_cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
}

void SolveService::shutdown() {
  {
    util::MutexLock lock(mutex_);
    accepting_ = false;
  }
  drain();
}

void SolveService::shutdown_now() {
  {
    util::MutexLock lock(mutex_);
    accepting_ = false;
  }
  for (const auto& rec : live_snapshot()) cancel(RequestTicket(rec));
  drain();
}

ServiceStats SolveService::stats() const {
  ServiceStats out;
  {
    util::MutexLock lock(mutex_);
    out.in_flight = in_flight_;
    out.completed = completed_;
    out.cancelled = cancelled_;
    out.failed = failed_;
    out.rejected = rejected_;
    out.classes.reserve(classes_.size());
    for (const auto& cls : classes_) {
      ClassLoad load;
      load.name = cls->config.name;
      load.weight = cls->config.weight;
      load.submitted = cls->submitted;
      load.in_flight = cls->in_flight;
      load.completed = cls->completed;
      load.cancelled = cls->cancelled;
      load.failed = cls->failed;
      load.rejected = cls->rejected;
      load.p50_seconds = percentile(cls->latencies, 0.50);
      load.p95_seconds = percentile(cls->latencies, 0.95);
      load.p99_seconds = percentile(cls->latencies, 0.99);
      out.classes.push_back(std::move(load));
    }
  }
  // Join the engine-side per-class counters (busy seconds and queue wait —
  // the fair-share evidence) outside mutex_: engine locks come second in
  // every code path here, never the other way around.
  const std::vector<sched::FairClassStats> fair = engine_->class_stats();
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    const sched::ClassId id = classes_[i]->engine_class;
    if (id < fair.size()) {
      out.classes[i].busy_seconds = fair[id].busy_seconds;
      out.classes[i].queue_wait_seconds = fair[id].queue_wait_seconds;
    }
  }
  out.engine = engine_->stats();
  if (cache_ != nullptr) {
    out.cache_enabled = true;
    out.cache = cache_->stats();
    // Join the cache's per-class counters by cache class id (registered in
    // classes_ order, so ids match indices unless the table overflowed).
    const std::vector<cache::ClassCacheStats> ccs = cache_->class_stats();
    for (std::size_t i = 0; i < classes_.size(); ++i) {
      const int id = classes_[i]->cache_class;
      if (id >= 0 && static_cast<std::size_t>(id) < ccs.size()) {
        out.classes[i].cache_hits = ccs[static_cast<std::size_t>(id)].hits;
        out.classes[i].cache_misses =
            ccs[static_cast<std::size_t>(id)].misses;
        out.classes[i].cache_coalesced =
            ccs[static_cast<std::size_t>(id)].coalesced;
      }
    }
  }
  return out;
}

std::string render_stats(const ServiceStats& stats) {
  std::vector<std::string> header = {"class", "weight", "in-flight", "done",
                                     "cancelled", "failed", "rejected",
                                     "p50 s", "p95 s", "p99 s", "busy s",
                                     "wait s"};
  if (stats.cache_enabled) {
    header.insert(header.end(), {"hit", "miss", "coal"});
  }
  util::Table table(header);
  for (const ClassLoad& cls : stats.classes) {
    std::vector<std::string> row = {
        cls.name, util::format_double(cls.weight, 2),
        std::to_string(cls.in_flight), std::to_string(cls.completed),
        std::to_string(cls.cancelled), std::to_string(cls.failed),
        std::to_string(cls.rejected),
        util::format_double(cls.p50_seconds, 4),
        util::format_double(cls.p95_seconds, 4),
        util::format_double(cls.p99_seconds, 4),
        util::format_double(cls.busy_seconds, 3),
        util::format_double(cls.queue_wait_seconds, 3)};
    if (stats.cache_enabled) {
      row.push_back(std::to_string(cls.cache_hits));
      row.push_back(std::to_string(cls.cache_misses));
      row.push_back(std::to_string(cls.cache_coalesced));
    }
    table.add_row(row);
  }
  std::string out = table.str();
  out += "totals: in-flight " + std::to_string(stats.in_flight) +
         ", completed " + std::to_string(stats.completed) + ", cancelled " +
         std::to_string(stats.cancelled) + ", failed " +
         std::to_string(stats.failed) + ", rejected " +
         std::to_string(stats.rejected) + "\n";
  out += "engine: ready q/c " + std::to_string(stats.engine.ready_quantum) +
         "/" + std::to_string(stats.engine.ready_classical) +
         ", in-flight q/c " + std::to_string(stats.engine.inflight_quantum) +
         "/" + std::to_string(stats.engine.inflight_classical) + "\n";
  if (stats.cache_enabled) {
    out += "cache: hits " + std::to_string(stats.cache.hits) + ", misses " +
           std::to_string(stats.cache.misses) + ", coalesced " +
           std::to_string(stats.cache.coalesced) + ", evictions " +
           std::to_string(stats.cache.evictions) + ", entries " +
           std::to_string(stats.cache.entries) + ", in-flight " +
           std::to_string(stats.cache.in_flight) + "\n";
  }
  return out;
}

}  // namespace qq::service
