#pragma once
// Cooperative request-scoped stop state — the cancellation token, deadline
// clock, and objective-evaluation budget one service request shares with
// every solve it fans out (ROADMAP item 1: per-request cancellation that
// long COBYLA loops and component shards observe MID-solve, not only at
// task boundaries).
//
// The contract is cooperative: nothing is interrupted. Long-running loops
// poll `stopped()` (optimizer evaluations, anneal sweeps, GW slicings,
// local-search restarts) and return their best-so-far; task boundaries call
// `throw_if_stopped()` so a stopped request's remaining tasks settle with
// a CancelledError, which stops the pipeline submitting further levels.
// All members are lock-free atomics: one context is read from many engine
// tasks concurrently while the owning service cancels it from outside.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace qq::util {

/// Why a request stopped. Ordered by precedence: an explicit cancel wins
/// over a deadline, a deadline over budget exhaustion.
enum class StopReason : std::uint8_t {
  kNone = 0,
  kCancelled,  ///< RequestContext::cancel() was called
  kDeadline,   ///< the deadline passed
  kBudget,     ///< the armed evaluation budget is spent
};

constexpr const char* stop_reason_name(StopReason reason) noexcept {
  switch (reason) {
    case StopReason::kNone: return "none";
    case StopReason::kCancelled: return "cancelled";
    case StopReason::kDeadline: return "deadline";
    case StopReason::kBudget: return "budget";
  }
  return "?";
}

/// Thrown by throw_if_stopped(); carries the reason so the service can map
/// a request's terminal state (cancelled vs deadline vs budget) without
/// string-matching.
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(StopReason reason)
      : std::runtime_error(std::string("request stopped: ") +
                           stop_reason_name(reason)),
        reason_(reason) {}

  StopReason reason() const noexcept { return reason_; }

 private:
  StopReason reason_;
};

class RequestContext {
 public:
  RequestContext() = default;
  RequestContext(const RequestContext&) = delete;
  RequestContext& operator=(const RequestContext&) = delete;

  /// Request an explicit cancel. Idempotent, callable from any thread.
  void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }

  bool cancel_requested() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Arm (or move) the deadline `seconds` from now on the steady clock.
  /// Saturates at +-kMaxDeadlineNs, so a huge, infinite or NaN `seconds`
  /// arms a deadline that never passes instead of overflowing the clock
  /// arithmetic.
  void set_deadline_after(double seconds) noexcept {
    const double ns = seconds * 1e9;
    const double ahead = std::isnan(ns) ? kMaxDeadlineNs
                                        : std::clamp(ns, -kMaxDeadlineNs,
                                                     kMaxDeadlineNs);
    deadline_ns_.store(now_ns() + static_cast<std::int64_t>(ahead),
                       std::memory_order_relaxed);
  }

  bool has_deadline() const noexcept {
    return deadline_ns_.load(std::memory_order_relaxed) != kNoDeadline;
  }

  /// Seconds until the deadline (negative once passed); +inf when unarmed.
  double seconds_until_deadline() const noexcept {
    const std::int64_t d = deadline_ns_.load(std::memory_order_relaxed);
    if (d == kNoDeadline) return std::numeric_limits<double>::infinity();
    return static_cast<double>(d - now_ns()) * 1e-9;
  }

  /// Arm a cumulative objective-evaluation budget shared by every solve of
  /// the request; charge_evals() draws it down.
  void arm_eval_budget(std::int64_t evals) noexcept {
    evals_remaining_.store(evals, std::memory_order_relaxed);
    budget_armed_.store(true, std::memory_order_relaxed);
  }

  bool eval_budget_armed() const noexcept {
    return budget_armed_.load(std::memory_order_relaxed);
  }

  /// Remaining budget, clamped at 0. Meaningless unless armed.
  std::int64_t evals_remaining() const noexcept {
    const std::int64_t r = evals_remaining_.load(std::memory_order_relaxed);
    return r > 0 ? r : 0;
  }

  /// `const` deliberately: solvers hold the context as `const
  /// RequestContext*` (they must not cancel or re-arm it) yet still draw
  /// down the budget — accounting, not configuration.
  void charge_evals(std::int64_t n) const noexcept {
    if (budget_armed_.load(std::memory_order_relaxed)) {
      evals_remaining_.fetch_sub(n, std::memory_order_relaxed);
    }
  }

  StopReason stop_reason() const noexcept {
    if (cancel_requested()) return StopReason::kCancelled;
    if (has_deadline() && seconds_until_deadline() <= 0.0) {
      return StopReason::kDeadline;
    }
    if (eval_budget_armed() &&
        evals_remaining_.load(std::memory_order_relaxed) <= 0) {
      return StopReason::kBudget;
    }
    return StopReason::kNone;
  }

  bool stopped() const noexcept { return stop_reason() != StopReason::kNone; }

  /// Task-boundary check: throws CancelledError carrying the reason.
  void throw_if_stopped() const {
    const StopReason reason = stop_reason();
    if (reason != StopReason::kNone) throw CancelledError(reason);
  }

 private:
  static constexpr std::int64_t kNoDeadline =
      std::numeric_limits<std::int64_t>::max();
  /// 2^62 ns, about 146 years. Steady-clock readings stay below it, so
  /// now_ns() +- this and seconds_until_deadline() fit in int64.
  static constexpr double kMaxDeadlineNs = 0x1p62;

  static std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::atomic<bool> cancelled_{false};
  std::atomic<std::int64_t> deadline_ns_{kNoDeadline};
  std::atomic<bool> budget_armed_{false};
  mutable std::atomic<std::int64_t> evals_remaining_{0};
};

}  // namespace qq::util
