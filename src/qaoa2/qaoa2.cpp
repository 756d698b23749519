#include "qaoa2/qaoa2.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <stdexcept>
#include <utility>

#include "qaoa2/merge.hpp"
#include "solver/registry.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace qq::qaoa2 {

namespace {

std::uint64_t mix_seed(std::uint64_t seed, int level, std::size_t part) {
  util::SplitMix64 sm(seed ^ (static_cast<std::uint64_t>(level) << 32) ^
                      static_cast<std::uint64_t>(part));
  return sm.next();
}

std::uint64_t partition_seed(std::uint64_t base_seed, int level) {
  return base_seed + static_cast<std::uint64_t>(level) * 1000003ULL;
}

solver::SolveRequest make_request(const graph::Graph& g, std::uint64_t seed,
                                  const util::RequestContext* context) {
  solver::SolveRequest request;
  request.graph = &g;
  request.seed = seed;
  request.context = context;
  return request;
}

/// The task fan-out of one partitioned level: a best-of combinator runs as
/// one task per child on the child's own resource kind (the paper's §3.6
/// hybrid selection keeps the QPU and CPU slots busy simultaneously); any
/// other solver is a single arm.
std::vector<const solver::Solver*> solver_arms(const solver::Solver& s) {
  std::vector<const solver::Solver*> arms = s.children();
  if (arms.empty()) arms.push_back(&s);
  return arms;
}

/// First-wins argmax over one part's per-arm reports — ties keep the
/// earlier-listed arm, preserving the old "QAOA wins ties over GW".
const solver::SolveReport& best_report(
    const std::vector<solver::SolveReport>& reports) {
  const solver::SolveReport* best = &reports.front();
  for (std::size_t a = 1; a < reports.size(); ++a) {
    if (reports[a].cut.value > best->cut.value) best = &reports[a];
  }
  return *best;
}

/// Fold one part's per-arm reports into the per-kind solve counters.
void count_reports(const std::vector<solver::SolveReport>& reports,
                   Qaoa2Result& result) {
  for (const solver::SolveReport& rep : reports) {
    result.quantum_solves += rep.quantum_solves;
    result.classical_solves += rep.classical_solves;
  }
  ++result.subgraphs_total;
}

LevelStats make_level_stats(
    int level, const std::vector<std::vector<graph::NodeId>>& parts) {
  LevelStats stats;
  stats.level = level;
  stats.num_parts = static_cast<int>(parts.size());
  stats.largest_part = 0;
  stats.smallest_part = 0;
  for (const auto& part : parts) {
    stats.largest_part =
        std::max(stats.largest_part, static_cast<int>(part.size()));
    stats.smallest_part =
        stats.smallest_part == 0
            ? static_cast<int>(part.size())
            : std::min(stats.smallest_part, static_cast<int>(part.size()));
  }
  return stats;
}

/// Fold one component's counters and per-level stats into the whole-solve
/// result. Level stats are merged by level: part counts and cuts sum,
/// extremes combine, so a single-component (connected) solve reduces to the
/// component's own stats.
void accumulate(Qaoa2Result& total, const Qaoa2Result& partial) {
  total.levels = std::max(total.levels, partial.levels);
  total.subgraphs_total += partial.subgraphs_total;
  total.quantum_solves += partial.quantum_solves;
  total.classical_solves += partial.classical_solves;
  total.solve_seconds += partial.solve_seconds;
  for (const LevelStats& ls : partial.level_stats) {
    auto it = std::find_if(
        total.level_stats.begin(), total.level_stats.end(),
        [&ls](const LevelStats& t) { return t.level == ls.level; });
    if (it == total.level_stats.end()) {
      total.level_stats.push_back(ls);
      continue;
    }
    it->num_parts += ls.num_parts;
    it->largest_part = std::max(it->largest_part, ls.largest_part);
    it->smallest_part = it->smallest_part == 0
                            ? ls.smallest_part
                            : std::min(it->smallest_part, ls.smallest_part);
    it->level_cut += ls.level_cut;
  }
  std::sort(total.level_stats.begin(), total.level_stats.end(),
            [](const LevelStats& a, const LevelStats& b) {
              return a.level < b.level;
            });
}

}  // namespace

std::uint64_t component_seed(std::uint64_t seed, std::size_t component,
                             std::size_t num_components) noexcept {
  if (num_components <= 1) return seed;
  util::SplitMix64 sm(seed ^
                      (0x9e3779b97f4a7c15ULL *
                       (static_cast<std::uint64_t>(component) + 1)));
  return sm.next();
}

Qaoa2Driver::Qaoa2Driver(const Qaoa2Options& options) : options_(options) {
  if (options.max_qubits < 2) {
    throw std::invalid_argument("Qaoa2Driver: max_qubits must be >= 2");
  }
  const solver::SolverRegistry& registry = solver::SolverRegistry::global();
  sub_ = registry.make(options_.sub_solver_spec);
  deeper_ = registry.make(options_.deeper_solver_spec);
  merge_ = registry.make(options_.merge_solver_spec);
  if (!merge_->children().empty()) {
    throw std::invalid_argument(
        "Qaoa2Driver: merge solver cannot be a best-of combinator (the "
        "coarse graph gets exactly one solve)");
  }
}

solver::SolveReport Qaoa2Driver::dispatch_solve(
    const solver::Solver& s, std::string_view solver_key,
    const solver::SolveRequest& request) const {
  if (options_.solve_cache == nullptr) return s.solve(request);
  return options_.solve_cache->solve_through(s, request, solver_key,
                                             options_.cache_policy);
}

std::vector<std::string> Qaoa2Driver::arm_solver_keys(
    int level, std::size_t num_arms) const {
  const std::string& key =
      level == 0 ? options_.sub_solver_spec : options_.deeper_solver_spec;
  std::vector<std::string> keys;
  keys.reserve(num_arms);
  if (num_arms <= 1) {
    keys.push_back(key);
    return keys;
  }
  for (std::size_t a = 0; a < num_arms; ++a) {
    keys.push_back(key + "#arm" + std::to_string(a));
  }
  return keys;
}

maxcut::CutResult Qaoa2Driver::solve_fitting_level(
    const graph::Graph& g, int level, std::uint64_t base_seed,
    Qaoa2Result& result, const util::RequestContext* context) const {
  const solver::Solver& s = level == 0 ? *sub_ : *merge_;
  const std::string& key =
      level == 0 ? options_.sub_solver_spec : options_.merge_solver_spec;
  const solver::SolveReport rep = dispatch_solve(
      s, key, make_request(g, mix_seed(base_seed, level, 0), context));
  result.solve_seconds += rep.wall_seconds;
  result.quantum_solves += rep.quantum_solves;
  result.classical_solves += rep.classical_solves;
  ++result.subgraphs_total;
  result.levels = std::max(result.levels, level + 1);
  LevelStats stats;
  stats.level = level;
  stats.num_parts = 1;
  stats.largest_part = stats.smallest_part = static_cast<int>(g.num_nodes());
  stats.level_cut = maxcut::cut_value(g, rep.cut.assignment);
  result.level_stats.push_back(stats);
  return rep.cut;
}

// ---------------------------------------------------------------------------
// Streaming pipeline: one persistent engine carries every component's chain
//   extract -> [partition -> sub-solves -> merge]* -> coarse solve -> unwind
// as independent tasks. The pipeline joins each level itself: the settle
// callback of a level's last sub-solve submits its merge, so a component
// whose sub-solves finish starts its coarse level while other components'
// sub-graphs are still in flight, and the partition / induced-extraction /
// merge-graph work runs on the engine and pool instead of the coordinator
// thread.

namespace {

/// One partitioned recursion level of one component.
struct StreamFrame {
  graph::Graph graph;  ///< the (coarse) graph partitioned at this level
  std::vector<std::vector<graph::NodeId>> parts;
  std::vector<graph::Subgraph> subgraphs;
  /// The level solver's task fan-out (its children for a best-of) and the
  /// per-arm cache keys.
  std::vector<const solver::Solver*> arms;
  std::vector<std::string> arm_keys;
  /// Per-part, per-arm solve reports: reports[part][arm].
  std::vector<std::vector<solver::SolveReport>> reports;
  std::vector<maxcut::Assignment> locals;
  LevelStats stats;
};

struct ComponentRun {
  std::size_t index = 0;
  std::uint64_t base_seed = 0;
  std::vector<graph::NodeId> to_global;
  std::deque<StreamFrame> frames;  ///< frames[l] = partitioned level l
  graph::Graph fitting_graph;      ///< the final level's (coarse) graph
  maxcut::Assignment assignment;   ///< component-local final assignment
  Qaoa2Result partial;
};

}  // namespace

class StreamPipeline : public std::enable_shared_from_this<StreamPipeline> {
 public:
  StreamPipeline(const Qaoa2Driver& driver, sched::WorkflowEngine& engine,
                 const graph::Graph& g, const SolveTags& tags,
                 Qaoa2Driver::DoneFn done)
      : driver_(driver),
        options_(driver.options()),
        engine_(engine),
        graph_(g),
        tags_(tags),
        done_(std::move(done)) {}

  /// Submit one classical PLANNING task that computes the component
  /// sharding (O(V+E) — off the caller's thread) and fans out from there;
  /// `done_` fires when the last task settles.
  void start() {
    submit_task(sched::ResourceKind::kClassical, [this] {
      if (graph_.num_nodes() <= options_.max_qubits) {
        // Mirror solve()'s fits-on-device path — ONE solve of the whole
        // graph — so both entries give the same result.
        components_count_ =
            static_cast<int>(graph::connected_components(graph_).size());
        runs_.resize(1);
        ComponentRun& c = runs_.front();
        c.base_seed = options_.seed;
        c.to_global.resize(static_cast<std::size_t>(graph_.num_nodes()));
        for (std::size_t j = 0; j < c.to_global.size(); ++j) {
          c.to_global[j] = static_cast<graph::NodeId>(j);
        }
        const solver::Solver& s = *driver_.sub_;
        submit_task(s.resource_kind(), [this, &c] {
          c.assignment = driver_
                             .solve_fitting_level(graph_, 0, c.base_seed,
                                                  c.partial, tags_.context)
                             .assignment;
        });
        return;
      }
      components_ = graph::connected_components(graph_);
      components_count_ = static_cast<int>(components_.size());
      start_components();
    });
  }

 private:
  void start_components() {
    runs_.resize(components_.size());
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      runs_[i].index = i;
      runs_[i].base_seed =
          component_seed(options_.seed, i, components_.size());
    }
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      ComponentRun& c = runs_[i];
      submit_task(sched::ResourceKind::kClassical, [this, &c] {
        graph::Subgraph sub = graph_.induced(components_[c.index]);
        c.to_global = std::move(sub.to_global);
        start_level(c, 0, std::move(sub.graph));
      });
    }
  }

  /// Every pipeline task goes through here: it carries the solve's tags,
  /// checks the stop context before its payload (so a cancelled request's
  /// still-queued tasks unwind instead of running), and participates in
  /// the outstanding-task count that triggers the done callback. The
  /// settle callback co-owns `this`, so the pipeline outlives its tasks
  /// even if the caller drops the handle. `joined`, if given, runs in the
  /// settle callback after the task's error is recorded.
  void submit_task(sched::ResourceKind kind, std::function<void()> body,
                   std::function<void()> joined = nullptr) {
    outstanding_.fetch_add(1, std::memory_order_relaxed);
    ++submitted_;
    sched::Task task;
    task.kind = kind;
    task.fair_class = tags_.fair_class;
    const util::RequestContext* ctx = tags_.context;
    task.context = ctx;
    task.work = [ctx, body = std::move(body)] {
      if (ctx != nullptr) ctx->throw_if_stopped();
      body();
      // A solve stopped MID-body returns its best-so-far instead of
      // throwing; the boundary re-check turns that into a cancellation so
      // a stopped request never masquerades as completed.
      if (ctx != nullptr) ctx->throw_if_stopped();
    };
    task.on_settled = [self = shared_from_this(),
                       joined = std::move(joined)](std::exception_ptr err) {
      self->task_settled(err, joined);
    };
    engine_.submit(std::move(task));
  }

  /// Exactly-once per task, outside the engine lock. The LAST settle (no
  /// task outstanding; every submission happens inside a task body or a
  /// settle callback, i.e. before that task's own decrement — so the count
  /// can only reach zero when the whole chain is done) assembles the
  /// result and fires `done_`.
  void task_settled(std::exception_ptr err,
                    const std::function<void()>& joined) {
    if (err) {
      util::MutexLock lock(error_mutex_);
      if (!first_error_) first_error_ = err;
    }
    if (joined) joined();
    if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) finish();
  }

  bool failed() {
    util::MutexLock lock(error_mutex_);
    return first_error_ != nullptr;
  }

  void finish() {
    Qaoa2Result result;
    std::exception_ptr err;
    {
      util::MutexLock lock(error_mutex_);
      err = first_error_;
    }
    if (!err) {
      result.components = components_count_;
      maxcut::Assignment global(static_cast<std::size_t>(graph_.num_nodes()),
                                0);
      for (const ComponentRun& run : runs_) {
        accumulate(result, run.partial);
        for (std::size_t j = 0; j < run.to_global.size(); ++j) {
          global[static_cast<std::size_t>(run.to_global[j])] =
              run.assignment[j];
        }
      }
      result.cut.assignment = std::move(global);
      result.cut.value = maxcut::cut_value(graph_, result.cut.assignment);
      result.engine_tasks = submitted_;
    }
    // Move the callback out before invoking: done handlers may destroy the
    // service-side record that owns the last external reference to us.
    Qaoa2Driver::DoneFn done = std::move(done_);
    done_ = nullptr;
    done(std::move(result), err);
  }

  void start_level(ComponentRun& c, int level, graph::Graph g) {
    c.partial.levels = std::max(c.partial.levels, level + 1);
    if (g.num_nodes() <= options_.max_qubits) {
      submit_fitting_solve(c, level, std::move(g));
      return;
    }

    graph::PartitionOptions popts;
    popts.max_nodes = options_.max_qubits;
    popts.method = options_.partition_method;
    popts.seed = partition_seed(c.base_seed, level);
    auto parts = graph::partition_max_size(g, popts);
    if (static_cast<graph::NodeId>(parts.size()) >= g.num_nodes()) {
      // Cannot happen with the partitioner's no-progress fallback; guard
      // the chain against any future partitioner that degenerates.
      throw std::runtime_error("Qaoa2Driver: partition made no progress");
    }

    c.frames.emplace_back();
    StreamFrame& f = c.frames.back();
    f.stats = make_level_stats(level, parts);
    f.graph = std::move(g);
    f.parts = std::move(parts);
    f.subgraphs = graph::induced_batch(f.graph, f.parts, &engine_.pool());
    f.arms = solver_arms(driver_.level_solver(level));
    f.arm_keys = driver_.arm_solver_keys(level, f.arms.size());

    const std::size_t n = f.parts.size();
    f.reports.assign(n, std::vector<solver::SolveReport>(f.arms.size()));

    // The level's join: the last of its parts x arms solves to settle
    // submits the merge, unless some task of this solve has failed or been
    // cancelled.
    auto pending =
        std::make_shared<std::atomic<std::size_t>>(n * f.arms.size());
    auto joined = [this, &c, level, pending] {
      if (pending->fetch_sub(1, std::memory_order_acq_rel) == 1 &&
          !failed()) {
        submit_task(sched::ResourceKind::kClassical,
                    [this, &c, level] { finish_level(c, level); });
      }
    };
    for (std::size_t i = 0; i < n; ++i) {
      // Every arm of a part shares the part's seed, exactly as the old
      // hardcoded best-of ran QAOA and GW on one seed.
      const std::uint64_t seed = mix_seed(c.base_seed, level, i);
      for (std::size_t a = 0; a < f.arms.size(); ++a) {
        submit_task(
            f.arms[a]->resource_kind(),
            [this, &c, level, i, a, seed] {
              StreamFrame& fr = c.frames[static_cast<std::size_t>(level)];
              fr.reports[i][a] = driver_.dispatch_solve(
                  *fr.arms[a], fr.arm_keys[a],
                  make_request(fr.subgraphs[i].graph, seed, tags_.context));
            },
            joined);
      }
    }
  }

  /// Merge task body: select locals, build the signed coarse graph, start
  /// the next level — all while other components' tasks keep flowing.
  void finish_level(ComponentRun& c, int level) {
    StreamFrame& f = c.frames[static_cast<std::size_t>(level)];
    Qaoa2Result& r = c.partial;
    f.locals.resize(f.parts.size());
    for (std::size_t i = 0; i < f.parts.size(); ++i) {
      f.locals[i] = best_report(f.reports[i]).cut.assignment;
      count_reports(f.reports[i], r);
      for (const solver::SolveReport& rep : f.reports[i]) {
        r.solve_seconds += rep.wall_seconds;
      }
    }
    graph::Graph coarse = build_merge_graph(f.graph, f.parts, f.locals);
    start_level(c, level + 1, std::move(coarse));
  }

  /// The component's terminal solve: the (coarse) graph fits on a device.
  /// Completion unwinds the flips through every recorded level. A best-of
  /// here runs its children inside the one task (its report still counts
  /// both kinds), so the coarse graph gets exactly one task.
  void submit_fitting_solve(ComponentRun& c, int level, graph::Graph g) {
    const solver::Solver& s = level == 0 ? *driver_.sub_ : *driver_.merge_;
    c.fitting_graph = std::move(g);
    submit_task(s.resource_kind(), [this, &c, level] {
      const auto res = driver_.solve_fitting_level(
          c.fitting_graph, level, c.base_seed, c.partial, tags_.context);
      unwind(c, level, res.assignment);
    });
  }

  void unwind(ComponentRun& c, int fitting_level,
              maxcut::Assignment assignment) {
    for (int l = fitting_level - 1; l >= 0; --l) {
      StreamFrame& f = c.frames[static_cast<std::size_t>(l)];
      assignment =
          apply_flips(f.graph.num_nodes(), f.parts, f.locals, assignment);
      f.stats.level_cut = maxcut::cut_value(f.graph, assignment);
      c.partial.level_stats.push_back(f.stats);
    }
    c.assignment = std::move(assignment);
  }

  const Qaoa2Driver& driver_;
  const Qaoa2Options& options_;
  sched::WorkflowEngine& engine_;
  const graph::Graph& graph_;
  SolveTags tags_;
  Qaoa2Driver::DoneFn done_;
  std::vector<std::vector<graph::NodeId>> components_;
  int components_count_ = 0;
  std::vector<ComponentRun> runs_;
  /// Pipeline tasks not yet settled; the 1 -> 0 transition fires `done_`.
  std::atomic<int> outstanding_{0};
  std::atomic<int> submitted_{0};
  util::Mutex error_mutex_;
  std::exception_ptr first_error_ QQ_GUARDED_BY(error_mutex_);
};

Qaoa2Result Qaoa2Driver::solve(const graph::Graph& g) const {
  util::Timer wall;
  Qaoa2Result result;

  // A graph that fits on one device needs no engine at all. It is still
  // reported with its true component count so `components` means the same
  // thing on both paths (found by the fuzz oracle: a 2-node edgeless graph
  // claimed components == 1).
  if (g.num_nodes() <= options_.max_qubits) {
    result.components =
        static_cast<int>(graph::connected_components(g).size());
    result.cut.assignment =
        solve_fitting_level(g, 0, options_.seed, result, nullptr)
            .assignment;
    result.cut.value = maxcut::cut_value(g, result.cut.assignment);
    return result;
  }

  // ONE engine (and one pool) for the entire solve. `done` runs inside the
  // settle callback of the last task, and drain() returns only after every
  // settle callback has returned, so one drain sees the solve settled.
  sched::WorkflowEngine engine(options_.engine);
  bool settled = false;
  std::exception_ptr err;
  solve_async(engine, g, SolveTags{},
              [&](Qaoa2Result r, std::exception_ptr e) {
                result = std::move(r);
                err = std::move(e);
                settled = true;
              });
  std::exception_ptr ignored;  // `done` reports the solve's first error
  engine.drain(&ignored);
  if (!settled) {
    throw std::logic_error("Qaoa2Driver::solve: drained before settling");
  }
  if (err) std::rethrow_exception(err);

  const sched::EngineStats estats = engine.stats();
  result.queue_wait_seconds = estats.queue_wait_seconds;
  const double ideal = sched::ideal_parallel_seconds(
      estats.busy_quantum_seconds, estats.busy_classical_seconds,
      estats.quantum_tasks, estats.classical_tasks, options_.engine,
      std::max<std::size_t>(std::size_t{1}, engine.pool().size()));
  result.coordination_seconds = std::max(0.0, wall.seconds() - ideal);
  return result;
}

std::shared_ptr<StreamPipeline> Qaoa2Driver::solve_async(
    sched::WorkflowEngine& engine, const graph::Graph& g,
    const SolveTags& tags, DoneFn done) const {
  if (!done) {
    throw std::invalid_argument("Qaoa2Driver::solve_async: empty callback");
  }
  auto pipeline = std::make_shared<StreamPipeline>(*this, engine, g, tags,
                                                   std::move(done));
  pipeline->start();
  return pipeline;
}

Qaoa2Result solve_qaoa2(const graph::Graph& g, const Qaoa2Options& options) {
  return Qaoa2Driver(options).solve(g);
}

}  // namespace qq::qaoa2
