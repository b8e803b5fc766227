#pragma once
// Per-task record store: the one buffer store behind the tracer's rings, the
// flight recorder's postcards and the metric-snapshot sampler's rows.
//
// Records are buffered per sweep task, keyed by the obs::TaskScope index the
// parallel engine installs around every task (0 is the main thread outside
// any sweep). Exports walk snapshot() in task order, so they depend only on
// the grid, never on ECND_THREADS or the schedule.
//
// Ownership: a task runs on exactly one thread, so each buffer has a single
// writer, and the sweep engine joins its workers before any export reads
// them. Creating a buffer (once per task) takes the store's mutex; every
// other write goes through a per-thread cached pointer. The cache is stamped
// with the store's generation, which clear() replaces with a fresh
// process-unique value, so a reset on any thread can never leave another
// thread writing through a stale pointer.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace ecnd::obs {

namespace detail {
inline thread_local std::uint32_t t_task = 0;
/// Source of store generations; 0 is never handed out, so an empty cache
/// entry matches no store.
inline std::atomic<std::uint64_t> g_store_generations{0};

/// The task index the calling thread currently records under (0 outside
/// any TaskScope).
inline std::uint32_t current_task() { return t_task; }
}  // namespace detail

/// Route this thread's trace, flight and snapshot records to task `task`'s
/// buffers (RAII; restores the previous task on destruction). The parallel
/// sweep engine installs TaskScope(grid_index + 1) around every task.
class TaskScope {
 public:
  explicit TaskScope(std::uint32_t task) : prev_(detail::t_task) {
    detail::t_task = task;
  }
  ~TaskScope() { detail::t_task = prev_; }
  TaskScope(const TaskScope&) = delete;
  TaskScope& operator=(const TaskScope&) = delete;

 private:
  std::uint32_t prev_;
};

/// Task-keyed buffers of type `Buf`, each constructed as Buf(capacity).
template <class Buf>
class TaskStore {
 public:
  explicit TaskStore(std::size_t capacity) : capacity_(capacity) {}

  /// The calling thread's buffer for its current task, created on first
  /// use. On a cache miss (first write on this thread, a TaskScope change,
  /// or a clear() since the last write) `on_switch(prev)` runs first: `prev`
  /// is the buffer this thread wrote last, or null when clear() dropped it.
  template <class OnSwitch>
  Buf& current(OnSwitch&& on_switch) {
    Cache& c = cache();
    const std::uint32_t task = detail::current_task();
    const std::uint64_t gen = generation_.load(std::memory_order_relaxed);
    if (c.gen != gen || c.task != task) {
      on_switch(c.gen == gen ? c.buf : nullptr);
      c.buf = buffer_for(task);
      c.task = task;
      c.gen = gen;
    }
    return *c.buf;
  }
  Buf& current() {
    return current([](Buf*) {});
  }

  /// Capacity for buffers created from now on (clamped to >= 1).
  void set_capacity(std::size_t cap) {
    const std::lock_guard<std::mutex> lock(mutex_);
    capacity_ = cap > 0 ? cap : 1;
  }

  /// Drop every buffer. Only call while no sweep is in flight.
  void clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    buffers_.clear();
    generation_.store(next_generation(), std::memory_order_relaxed);
  }

  /// Buffer pointers in task order (a buffer never moves once created).
  std::vector<std::pair<std::uint32_t, const Buf*>> snapshot() {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::uint32_t, const Buf*>> out;
    out.reserve(buffers_.size());
    for (const auto& [task, buf] : buffers_) out.emplace_back(task, buf.get());
    return out;
  }

 private:
  struct Cache {
    std::uint64_t gen = 0;
    std::uint32_t task = 0;
    Buf* buf = nullptr;
  };

  static Cache& cache() {
    thread_local Cache c;
    return c;
  }

  static std::uint64_t next_generation() {
    return detail::g_store_generations.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  Buf* buffer_for(std::uint32_t task) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = buffers_[task];
    if (!slot) slot = std::make_unique<Buf>(capacity_);
    return slot.get();
  }

  std::mutex mutex_;
  std::map<std::uint32_t, std::unique_ptr<Buf>> buffers_;
  std::size_t capacity_;
  std::atomic<std::uint64_t> generation_{next_generation()};
};

}  // namespace ecnd::obs
