// Wall-clock timing helpers used by benchmarks, the query-cost breakdowns,
// and the serving layer's per-request deadlines.

#ifndef BIGINDEX_UTIL_TIMER_H_
#define BIGINDEX_UTIL_TIMER_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>

namespace bigindex {

/// Monotonic stopwatch. Restart() resets the origin; Elapsed*() reads without
/// resetting, so one timer can bracket several phases.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

  uint64_t ElapsedMicros() const {
    return static_cast<uint64_t>(ElapsedSeconds() * 1e6);
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// A monotonic point in time a piece of work must finish by. Value type,
/// cheap to copy; the default-constructed deadline never expires, so code can
/// thread a Deadline unconditionally and pay nothing when none was requested
/// (Expired() on a never-deadline is branch-only, no clock read).
///
/// Cancellation here is cooperative: holders poll Expired() at checkpoints
/// (the evaluator checks between candidate verifications, the serving layer
/// at admission and batch assembly) rather than being interrupted.
class Deadline {
 public:
  /// Never expires.
  Deadline() : deadline_(Clock::time_point::max()) {}

  /// Expires `budget_ms` from now. A non-positive budget is already expired.
  /// The budget is clamped to +-kMaxBudgetMs (~31 years), so any double,
  /// including one read off the wire, converts to a clock offset safely.
  static Deadline After(double budget_ms) {
    budget_ms = std::clamp(budget_ms, -kMaxBudgetMs, kMaxBudgetMs);
    Deadline d;
    d.deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double, std::milli>(
                                         budget_ms));
    return d;
  }

  /// The never-expiring deadline, spelled out.
  static Deadline Never() { return Deadline(); }

  bool IsNever() const { return deadline_ == Clock::time_point::max(); }

  bool Expired() const {
    return !IsNever() && Clock::now() >= deadline_;
  }

  /// Milliseconds until expiry: negative once expired, +infinity for Never().
  double RemainingMillis() const {
    if (IsNever()) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double, std::milli>(deadline_ - Clock::now())
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr double kMaxBudgetMs = 1e12;
  Clock::time_point deadline_;
};

}  // namespace bigindex

#endif  // BIGINDEX_UTIL_TIMER_H_
