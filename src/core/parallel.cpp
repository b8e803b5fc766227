#include "core/parallel.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "core/env.hpp"
#include "core/hash.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/task_store.hpp"

namespace ecnd::par {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Sweep instrumentation: task/sweep wall-clock histograms (these supersede
// the stderr timing lines when ECND_OBS_SUMMARY is on) plus a deterministic
// task counter. Worker shards merge at thread exit, inside the sweep.
const obs::Counter kTasks = obs::counter("par.tasks");
const obs::Histogram kTaskNs =
    obs::histogram("prof.par.task_ns", obs::Domain::kWall);
const obs::Histogram kSweepNs =
    obs::histogram("prof.par.sweep_ns", obs::Domain::kWall);
// Fault accounting: every attempt that threw, retries granted by a
// FaultPolicy, and tasks that stayed failed after their last attempt.
const obs::Counter kTaskFailures = obs::counter("par.task_failures");
const obs::Counter kTaskRetries = obs::counter("par.task_retries");
const obs::Counter kQuarantined = obs::counter("par.quarantined");

}  // namespace

std::size_t thread_count() {
  if (const auto threads = env_positive_int("ECND_THREADS")) {
    return static_cast<std::size_t>(*threads);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? hw : 1;
}

std::uint64_t task_seed(std::uint64_t base_seed, std::uint64_t task_index) {
  // SplitMix64 finalizer (same mixer the Rng seeds through). The golden-ratio
  // pre-scramble of the index keeps base_seed^index pairs from aliasing
  // (e.g. seed 5/task 4 vs seed 4/task 5).
  return splitmix64_mix(base_seed ^ (task_index * kGoldenGamma + kGoldenGamma));
}

SweepTiming parallel_for_each(std::size_t count,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t threads) {
  if (threads == 0) threads = thread_count();
  if (threads > count) threads = count;
  if (threads == 0) threads = 1;

  SweepTiming timing;
  timing.tasks = count;
  timing.threads = threads;
  const auto sweep_start = Clock::now();
  if (count == 0) return timing;
  obs::ProfScope sweep_scope("par.sweep");

  // Per-task durations land in per-index slots (no contention, and the
  // accounting is identical however tasks map onto threads).
  std::vector<double> task_s(count, 0.0);

  // Each grid index gets its own trace/flight/snapshot buffers (TaskScope)
  // so the exports depend on the grid, not on which worker ran the task.
  auto run_task = [&](std::size_t i) {
    obs::TaskScope scope(static_cast<std::uint32_t>(i) + 1);
    // Detached: a task's profile frame must not inherit the caller's stack —
    // on the main thread that stack holds par.sweep, on a worker it is
    // empty, and the merged tree has to look the same either way.
    obs::ProfScope prof_scope("par.task", obs::Anchor::kDetached);
    const auto t0 = Clock::now();
    try {
      fn(i);
    } catch (const InvariantViolation& e) {
      kTaskFailures.add();
      // Stamp the grid index so a one-line report pinpoints the failing cell.
      if (e.diagnostic().task_index < 0) {
        Diagnostic d = e.diagnostic();
        d.task_index = static_cast<std::int64_t>(i);
        throw InvariantViolation(std::move(d), InvariantViolation::kAnnotated);
      }
      throw;
    } catch (...) {
      kTaskFailures.add();
      throw;
    }
    task_s[i] = seconds_since(t0);
    kTasks.add();
    kTaskNs.record(static_cast<std::uint64_t>(task_s[i] * 1e9));
  };

  if (threads == 1) {
    // Serial path: run inline so exceptions propagate directly and behavior
    // matches the pre-engine harnesses exactly.
    for (std::size_t i = 0; i < count; ++i) run_task(i);
  } else {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> failure_count{0};
    std::exception_ptr first_error;
    std::mutex error_mutex;
    auto worker = [&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        try {
          run_task(i);
        } catch (...) {
          failure_count.fetch_add(1, std::memory_order_relaxed);
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(threads - 1);
    for (std::size_t t = 0; t + 1 < threads; ++t) pool.emplace_back(worker);
    worker();  // the calling thread is worker 0
    for (std::thread& t : pool) t.join();
    if (first_error) {
      // Surfacing only the first failure used to silently discard the rest;
      // now the rethrown message says how many more died with it.
      const std::size_t suppressed = failure_count.load() - 1;
      if (suppressed == 0) std::rethrow_exception(first_error);
      const std::string note = std::to_string(suppressed) +
                               " additional task failure(s) suppressed";
      try {
        std::rethrow_exception(first_error);
      } catch (const InvariantViolation& e) {
        Diagnostic d = e.diagnostic();
        if (!d.detail.empty()) d.detail += "; ";
        d.detail += note;
        throw InvariantViolation(std::move(d), InvariantViolation::kAnnotated);
      } catch (const std::exception& e) {
        throw std::runtime_error(std::string(e.what()) + " [" + note + "]");
      }
      // Non-std exceptions fall through std::rethrow_exception unannotated.
    }
  }

  timing.wall_s = seconds_since(sweep_start);
  for (double s : task_s) {
    timing.task_sum_s += s;
    if (s > timing.task_max_s) timing.task_max_s = s;
  }
  kSweepNs.record(static_cast<std::uint64_t>(timing.wall_s * 1e9));
  return timing;
}

IsolationReport parallel_for_each_isolated(
    std::size_t count, const std::function<void(std::size_t, int)>& fn,
    FaultPolicy policy, std::size_t threads) {
  if (policy.max_attempts < 1) policy.max_attempts = 1;

  IsolationReport report;
  // Per-index slots: no locking, and the final failure list comes out in
  // grid order no matter which worker quarantined which cell.
  std::vector<std::unique_ptr<TaskFailureRecord>> slots(count);
  std::atomic<std::size_t> retries{0};
  std::atomic<std::size_t> failed_attempts{0};

  // Returns true when the task should retry, false once it is quarantined.
  auto note_failure = [&](std::size_t i, int attempt, std::string message,
                          const Diagnostic* diag) {
    failed_attempts.fetch_add(1, std::memory_order_relaxed);
    kTaskFailures.add();
    if (attempt + 1 < policy.max_attempts) {
      retries.fetch_add(1, std::memory_order_relaxed);
      kTaskRetries.add();
      return true;
    }
    auto rec = std::make_unique<TaskFailureRecord>();
    rec->index = i;
    rec->attempts = attempt + 1;
    rec->message = std::move(message);
    if (diag) {
      rec->diagnostic = *diag;
      if (rec->diagnostic.task_index < 0) {
        rec->diagnostic.task_index = static_cast<std::int64_t>(i);
      }
      rec->has_diagnostic = true;
    }
    slots[i] = std::move(rec);
    kQuarantined.add();
    return false;
  };

  report.timing = parallel_for_each(
      count,
      [&](std::size_t i) {
        for (int attempt = 0;; ++attempt) {
          try {
            fn(i, attempt);
            return;
          } catch (const InvariantViolation& e) {
            if (!note_failure(i, attempt, e.what(), &e.diagnostic())) return;
          } catch (const std::exception& e) {
            if (!note_failure(i, attempt, e.what(), nullptr)) return;
          } catch (...) {
            if (!note_failure(i, attempt, "unknown exception", nullptr)) {
              return;
            }
          }
        }
      },
      threads);

  report.retries = retries.load();
  report.failed_attempts = failed_attempts.load();
  for (auto& rec : slots) {
    if (rec) report.failures.push_back(std::move(*rec));
  }
  return report;
}

}  // namespace ecnd::par
