#pragma once
// Discrete-event simulation core.
//
// This is the substrate standing in for ns-3 in the paper's packet-level
// experiments. Time is integer picoseconds (PicoTime) so event ordering is
// exact; ties break in schedule order (FIFO), which keeps runs deterministic
// regardless of priority-queue internals.
//
// A port's transmit-complete event is usually a no-op (nothing is waiting
// when the wire frees up), so it is not queued by default: the port reserves
// the key the event would have had (reserve_key), asks whether dispatch has
// passed it (passed), and queues a real event under that exact key
// (schedule_at_key) only once a packet is waiting. Every other event keeps
// its (t, seq) key, so dispatch order is the always-scheduled order minus the
// elided no-ops. See DESIGN.md "Simulator".
//
// Events live in a pooled arena: each scheduled action is placement-new'd
// into a recycled fixed-size slot (kInlineActionBytes = 64 — enough for
// every capture list in the tree; the largest, a port's [this, pkt], is
// checked against it at compile time in port.cpp), so the steady-state event
// loop performs no allocator traffic at all. The priority queue itself holds
// only POD {time, seq, slot} entries, which also removes the old
// const_cast-move-from-top() hack. Oversized or over-aligned callables fall
// back to one heap allocation per event; nothing in-tree hits that path.

#include <cassert>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/units.hpp"
#include "obs/profile.hpp"

namespace ecnd::sim {

class Simulator {
 public:
  using Action = std::function<void()>;

  /// Dispatch key. Events run in (t, seq) order; seq is unique.
  struct EventKey {
    PicoTime t = 0;
    std::uint64_t seq = 0;
    friend bool operator<(const EventKey& a, const EventKey& b) {
      return a.t != b.t ? a.t < b.t : a.seq < b.seq;
    }
  };

  /// Inline capture budget of one event slot. An action up to this size
  /// (and max_align_t alignment) is stored in the slot itself; a larger one
  /// costs a heap allocation per event.
  static constexpr std::size_t kInlineActionBytes = 64;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  PicoTime now() const { return now_; }
  std::uint64_t events_processed() const { return processed_; }
  std::size_t events_pending() const { return queue_.size(); }

  /// Schedule `action` to run at absolute time `t`. A `t` in the past would
  /// silently corrupt event order, so it is clamped to `now` and counted in
  /// late_schedules() instead (feedback code computing a target time from a
  /// stale rate register can legitimately land a few picoseconds early).
  template <typename F>
  void schedule_at(PicoTime t, F&& action) {
    push(EventKey{clamp_schedule(t), next_seq_}, std::forward<F>(action));
    ++next_seq_;
  }
  /// Schedule `action` to run `delay` picoseconds from now.
  template <typename F>
  void schedule_in(PicoTime delay, F&& action) {
    schedule_at(now_ + delay, std::forward<F>(action));
  }

  /// Take the key a schedule_at(t, ...) made now would get, without queuing
  /// anything. Until schedule_at_key() fills it, the key is an elided no-op
  /// event: it orders every later-scheduled event exactly as the real one
  /// would have, and run_one()/run_all() advance the clock past it when the
  /// queue drains.
  EventKey reserve_key(PicoTime t) {
    t = clamp_schedule(t);
    if (t > latest_reserved_) latest_reserved_ = t;
    return EventKey{t, next_seq_++};
  }

  /// Queue `action` under a key from reserve_key() that has not passed().
  template <typename F>
  void schedule_at_key(EventKey key, F&& action) {
    assert(!passed(key) && "reserved key already dispatched");
    push(key, std::forward<F>(action));
  }

  /// True once dispatch has reached `key`: it orders at or before the event
  /// being dispatched (or, between runs, the last one dispatched), or lies at
  /// or before the horizon of the last run_until(). A default EventKey has
  /// always passed.
  bool passed(EventKey key) const { return !(cursor_ < key); }

  /// Number of schedule_at() calls that targeted the past and were clamped.
  std::uint64_t late_schedules() const { return late_schedules_; }

  /// Watchdog: abort (InvariantViolation) once more than `max_events` events
  /// have been processed. 0 disables. Catches runaway event loops — e.g. a
  /// pacing bug rescheduling itself with a zero gap — before they spin
  /// forever.
  void set_event_budget(std::uint64_t max_events) { event_budget_ = max_events; }
  /// Watchdog: abort (InvariantViolation) once the host has spent more than
  /// `seconds` of wall-clock time inside a single run_one()/run_until()/
  /// run_all() episode. 0 disables. The clock restarts at every
  /// run_until()/run_all() entry, so the limit bounds each run, not the
  /// lifetime of the Simulator. Checked every few thousand events (and once
  /// at the end of each run, so a run whose queue drains still trips).
  void set_wall_clock_limit(double seconds) {
    wall_limit_s_ = seconds;
    arm_wall_clock();
  }

  /// Run the next pending event; returns false when the queue is empty
  /// (after advancing the clock to the latest reserved key, where the last
  /// elided event would have run).
  bool run_one();

  /// Run all events with time <= t_end, then advance the clock to t_end.
  void run_until(PicoTime t_end);

  /// Run until the event queue drains completely.
  void run_all();

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  static constexpr std::size_t kSlotsPerChunk = 256;

  struct EventSlot;
  struct SlotOps {
    // Invoke the stored action, then destroy it — one indirect call per
    // dispatched event. Destruction must happen even when the action throws
    // (invariant guards inside Port/Host actions do), hence the RAII scope
    // inside each instantiation.
    void (*run_and_destroy)(EventSlot&);
    // Destroy without invoking (queue teardown, schedule failure).
    void (*destroy)(EventSlot&);
  };
  struct EventSlot {
    const SlotOps* ops = nullptr;
    std::uint32_t next_free = kNoSlot;
    alignas(std::max_align_t) unsigned char inline_buf[kInlineActionBytes];
  };

  // The action is stored inline when it fits; otherwise the inline buffer
  // holds a single owning pointer to a heap copy. Both variants share the
  // two-entry vtable above.
  template <typename Fn>
  struct InlineOps {
    static Fn* get(EventSlot& s) {
      return std::launder(reinterpret_cast<Fn*>(s.inline_buf));
    }
    static void run_and_destroy(EventSlot& s) {
      Fn* fn = get(s);
      struct Reaper {
        Fn* fn;
        ~Reaper() { fn->~Fn(); }
      } reaper{fn};
      (*fn)();
    }
    static void destroy(EventSlot& s) { get(s)->~Fn(); }
    static constexpr SlotOps kOps{&run_and_destroy, &destroy};
  };
  template <typename Fn>
  struct HeapOps {
    static Fn* get(EventSlot& s) {
      return *std::launder(reinterpret_cast<Fn**>(s.inline_buf));
    }
    static void run_and_destroy(EventSlot& s) {
      Fn* fn = get(s);
      struct Reaper {
        Fn* fn;
        ~Reaper() { delete fn; }
      } reaper{fn};
      (*fn)();
    }
    static void destroy(EventSlot& s) { delete get(s); }
    static constexpr SlotOps kOps{&run_and_destroy, &destroy};
  };

  template <typename F>
  static void emplace_action(EventSlot& slot, F&& action) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineActionBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(slot.inline_buf)) Fn(std::forward<F>(action));
      slot.ops = &InlineOps<Fn>::kOps;
    } else {
      ::new (static_cast<void*>(slot.inline_buf))
          Fn*(new Fn(std::forward<F>(action)));
      slot.ops = &HeapOps<Fn>::kOps;
    }
  }

  struct QueuedEvent {
    PicoTime t;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  // 4-ary min-heap over POD entries. (t, seq) is a strict total order (seq is
  // unique), so the pop sequence is fully determined regardless of internal
  // layout — swapping heap arity cannot perturb event order. A 4-ary heap is
  // half the depth of a binary one and keeps sibling groups within a cache
  // line pair, which measurably cuts the per-event queue cost in the incast
  // benchmark.
  class EventHeap {
   public:
    bool empty() const { return v_.empty(); }
    std::size_t size() const { return v_.size(); }
    const QueuedEvent& top() const { return v_.front(); }

    // Both sifts move entries into a hole instead of swapping — one 24-byte
    // move per level rather than three.
    void push(const QueuedEvent& e) {
      v_.push_back(e);
      std::size_t hole = v_.size() - 1;
      while (hole > 0) {
        const std::size_t parent = (hole - 1) / 4;
        if (!earlier(e, v_[parent])) break;
        v_[hole] = v_[parent];
        hole = parent;
      }
      v_[hole] = e;
    }

    void pop() {
      const QueuedEvent last = v_.back();
      v_.pop_back();
      const std::size_t n = v_.size();
      if (n == 0) return;
      std::size_t hole = 0;
      for (;;) {
        const std::size_t first_child = 4 * hole + 1;
        if (first_child >= n) break;
        const std::size_t last_child = first_child + 4 < n ? first_child + 4 : n;
        std::size_t best = first_child;
        for (std::size_t c = first_child + 1; c < last_child; ++c) {
          if (earlier(v_[c], v_[best])) best = c;
        }
        if (!earlier(v_[best], last)) break;
        v_[hole] = v_[best];
        hole = best;
      }
      v_[hole] = last;
    }

   private:
    static bool earlier(const QueuedEvent& a, const QueuedEvent& b) {
      if (a.t != b.t) return a.t < b.t;
      return a.seq < b.seq;
    }
    std::vector<QueuedEvent> v_;
  };

  EventSlot& slot_at(std::uint32_t idx) {
    return chunks_[idx / kSlotsPerChunk][idx % kSlotsPerChunk];
  }

  template <typename F>
  void push(EventKey key, F&& action) {
    const std::uint32_t idx = acquire_slot();
    EventSlot& slot = slot_at(idx);
    try {
      emplace_action(slot, std::forward<F>(action));
    } catch (...) {
      release_slot(idx);
      throw;
    }
    try {
      obs::ProfScope heap_scope("sim.heap_push");
      queue_.push(QueuedEvent{key.t, key.seq, idx});
    } catch (...) {
      slot.ops->destroy(slot);
      release_slot(idx);
      throw;
    }
  }

  PicoTime clamp_schedule(PicoTime t);       // counts late_schedules
  std::uint32_t acquire_slot();              // free list first, else grow
  void release_slot(std::uint32_t idx);      // push back onto the free list
  void arm_wall_clock();                     // restart the per-run clock
  void check_watchdogs();
  void throw_if_wall_expired();

  PicoTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  EventKey cursor_;              // every key <= cursor_ has passed()
  PicoTime latest_reserved_ = 0; // latest reserve_key() time
  std::uint64_t processed_ = 0;
  std::uint64_t late_schedules_ = 0;
  std::uint64_t event_budget_ = 0;
  double wall_limit_s_ = 0.0;
  std::uint64_t next_wall_check_ = 0;
  std::chrono::steady_clock::time_point wall_start_;
  EventHeap queue_;
  std::vector<std::unique_ptr<EventSlot[]>> chunks_;
  std::uint32_t next_unused_ = 0;
  std::uint32_t free_head_ = kNoSlot;
};

}  // namespace ecnd::sim
