#pragma once
// Deterministic parallel sweep engine.
//
// Every figure harness sweeps a grid of independent scenario runs (N x delay
// phase-margin grids, load x protocol FCT sweeps, loss x protocol fault
// sweeps). parallel_for_each / parallel_map distribute those tasks over a
// small thread pool while keeping the results bit-identical to a serial run:
//
//  * each task writes into its own pre-sized result slot, so output order is
//    the grid order, never the completion order;
//  * all randomness a task needs is derived from task_seed(base, index) — a
//    SplitMix64 finalizer over base_seed ^ index — so streams depend only on
//    the task's grid position, never on which thread picked it up;
//  * no shared mutable state crosses task boundaries (Rng, Table, TimeSeries
//    and Diagnostic are all plain per-instance values; tasks must confine
//    their state the same way and merge after the join).
//
// Thread count resolves from the ECND_THREADS environment variable (or the
// explicit `threads` argument); 1 runs the tasks inline on the calling
// thread — the old serial path, useful as a determinism baseline and when
// debugging. The first exception thrown by any task (e.g. an
// InvariantViolation from a guard) is rethrown on the calling thread after
// all workers drain.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/diagnostic.hpp"

namespace ecnd::par {

/// Worker count a sweep with threads=0 will use: ECND_THREADS when set to a
/// positive integer (digits only; anything else prints one stderr line per
/// call and is ignored), else std::thread::hardware_concurrency() (min 1).
/// Read from the environment on every call so tests can flip it at runtime.
std::size_t thread_count();

/// Deterministic per-task seed: SplitMix64 finalization of base_seed ^ task
/// index. Distinct tasks get well-separated streams, the same task always
/// gets the same stream, and nearby base seeds do not collide across tasks.
std::uint64_t task_seed(std::uint64_t base_seed, std::uint64_t task_index);

/// Wall-clock accounting for one sweep (reported by the benches to stderr so
/// table output stays byte-identical across thread counts).
struct SweepTiming {
  std::size_t tasks = 0;
  std::size_t threads = 1;
  double wall_s = 0.0;      ///< whole-sweep wall clock
  double task_sum_s = 0.0;  ///< sum of per-task wall clocks (~serial cost)
  double task_max_s = 0.0;  ///< slowest single task (parallel lower bound)

  /// Effective speedup vs running the same tasks serially.
  double speedup() const { return wall_s > 0.0 ? task_sum_s / wall_s : 1.0; }
};

/// Run fn(0), ..., fn(count-1), distributing indices over `threads` workers
/// (0 = thread_count()). Tasks are claimed dynamically, so uneven task costs
/// balance; determinism must come from the task body (write only to slot i,
/// seed only from task_seed). threads==1 runs inline, no threads spawned.
///
/// Strict failure semantics: every task still runs (workers drain the index
/// space), every failed task is counted in par.task_failures, and the first
/// exception is rethrown on the calling thread once all workers join. When
/// more than one task failed, the rethrown message gains an "N additional
/// task failure(s) suppressed" note — an InvariantViolation keeps its type
/// and diagnostic (note appended to the detail), any other std::exception is
/// re-wrapped as std::runtime_error. The serial path (threads==1) instead
/// aborts at the first failure, exactly like a plain loop would.
/// Use parallel_for_each_isolated to keep per-task failures out of band.
SweepTiming parallel_for_each(std::size_t count,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t threads = 0);

/// Retry policy for parallel_for_each_isolated. A task gets `max_attempts`
/// tries; the attempt number is passed to the task so it can degrade
/// deterministically in the problem domain (the fluid harnesses halve dt per
/// attempt — backoff in step size, not wall clock, so a retried cell is still
/// reproducible from (index, attempt) alone).
struct FaultPolicy {
  int max_attempts = 2;  ///< total tries per task; < 1 behaves as 1
};

/// One quarantined cell: which task, how hard we tried, and why it failed.
struct TaskFailureRecord {
  std::size_t index = 0;  ///< grid index of the quarantined task
  int attempts = 0;       ///< tries consumed (== policy.max_attempts)
  std::string message;    ///< what() of the final attempt's exception
  Diagnostic diagnostic;  ///< structured report (when the failure carried one)
  bool has_diagnostic = false;
};

/// Outcome of an isolated sweep: timing plus the quarantine list.
struct IsolationReport {
  SweepTiming timing;
  std::vector<TaskFailureRecord> failures;  ///< grid order
  std::size_t retries = 0;          ///< extra attempts granted by the policy
  std::size_t failed_attempts = 0;  ///< individual attempts that threw
  bool all_ok() const { return failures.empty(); }
};

/// Fault-isolating variant of parallel_for_each: fn(i, attempt) failures are
/// caught per task, retried up to policy.max_attempts times, and finally
/// quarantined into the report instead of aborting the sweep — one divergent
/// cell costs one cell, not the whole grid. Counted in par.task_failures /
/// par.task_retries / par.quarantined. Unlike the strict variant, serial and
/// parallel runs behave identically (nothing propagates mid-sweep).
IsolationReport parallel_for_each_isolated(
    std::size_t count, const std::function<void(std::size_t, int)>& fn,
    FaultPolicy policy = {}, std::size_t threads = 0);

/// Map `items` through `fn` into a same-order result vector. The result type
/// must be default-constructible (slots are pre-sized before the sweep).
/// `timing`, when non-null, receives the sweep's wall-clock accounting.
template <typename Item, typename Fn>
auto parallel_map(const std::vector<Item>& items, Fn fn,
                  std::size_t threads = 0, SweepTiming* timing = nullptr) {
  using Result = decltype(fn(items.front()));
  std::vector<Result> out(items.size());
  const SweepTiming t = parallel_for_each(
      items.size(), [&](std::size_t i) { out[i] = fn(items[i]); }, threads);
  if (timing) *timing = t;
  return out;
}

}  // namespace ecnd::par
