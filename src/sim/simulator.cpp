#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "core/diagnostic.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/snapshot.hpp"

namespace ecnd::sim {
namespace {

// Registered at startup so the metric set in a dump never depends on which
// code paths ran. sim.events counts run_one dispatches across every
// Simulator instance; prof.sim.run_ns brackets run_until/run_all, so
// ns-per-event is prof.sim.run_ns.sum / sim.events. sim.event_pool_reuse
// counts slots handed out from the free list rather than fresh arena growth;
// in steady state it tracks sim.events almost 1:1.
const obs::Counter kEvents = obs::counter("sim.events");
const obs::Counter kLateSchedules = obs::counter("sim.late_schedules");
const obs::Counter kPoolReuse = obs::counter("sim.event_pool_reuse");
const obs::Histogram kRunNs =
    obs::histogram("prof.sim.run_ns", obs::Domain::kWall);

}  // namespace

Simulator::~Simulator() {
  // Pending actions own resources (captured shared state, heap fallbacks);
  // destroy them explicitly since the pool holds only raw bytes.
  while (!queue_.empty()) {
    EventSlot& slot = slot_at(queue_.top().slot);
    slot.ops->destroy(slot);
    queue_.pop();
  }
}

PicoTime Simulator::clamp_schedule(PicoTime t) {
  if (t < now_) {
    ++late_schedules_;
    kLateSchedules.add();
    t = now_;
  }
  return t;
}

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t idx = free_head_;
    free_head_ = slot_at(idx).next_free;
    kPoolReuse.add();
    return idx;
  }
  if (next_unused_ == chunks_.size() * kSlotsPerChunk) {
    chunks_.push_back(std::make_unique<EventSlot[]>(kSlotsPerChunk));
  }
  return next_unused_++;
}

void Simulator::release_slot(std::uint32_t idx) {
  EventSlot& slot = slot_at(idx);
  slot.ops = nullptr;
  slot.next_free = free_head_;
  free_head_ = idx;
}

void Simulator::arm_wall_clock() {
  if (wall_limit_s_ <= 0.0) return;
  wall_start_ = std::chrono::steady_clock::now();
  // Force a real check on the very next processed event: the previous run
  // may have left the amortization stride mid-window, which used to let a
  // re-entered run_until() skip its first check against a stale wall_start_.
  next_wall_check_ = processed_ + 1;
}

void Simulator::throw_if_wall_expired() {
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - wall_start_;
  if (elapsed.count() > wall_limit_s_) {
    throw InvariantViolation(Diagnostic::make(
        "Simulator", "wall_clock_seconds", to_seconds(now_), elapsed.count(),
        "wall-clock watchdog expired (limit " + std::to_string(wall_limit_s_) +
            " s; " + std::to_string(processed_) + " events processed, " +
            std::to_string(queue_.size()) + " still pending)"));
  }
}

void Simulator::check_watchdogs() {
  if (event_budget_ != 0 && processed_ > event_budget_) {
    throw InvariantViolation(Diagnostic::make(
        "Simulator", "events_processed", to_seconds(now_),
        static_cast<double>(processed_),
        "event budget of " + std::to_string(event_budget_) + " exhausted (" +
            std::to_string(queue_.size()) +
            " events still pending; runaway self-rescheduling loop?)"));
  }
  // A chrono call per event would dominate the dispatch cost; amortize it on
  // an explicit stride so arming (or re-arming) the limit can force the next
  // event to check regardless of where processed_ sits in the stride.
  if (wall_limit_s_ > 0.0 && processed_ >= next_wall_check_) {
    next_wall_check_ = processed_ + 0x1000;
    throw_if_wall_expired();
  }
}

bool Simulator::run_one() {
  if (queue_.empty()) {
    // Reserved keys never queued were no-op events; the last of them is
    // where an always-scheduled run would have stopped the clock.
    if (now_ < latest_reserved_) now_ = latest_reserved_;
    cursor_ = std::max(cursor_, EventKey{now_, next_seq_});
    return false;
  }
  QueuedEvent ev;
  {
    obs::ProfScope heap_scope("sim.heap_pop");
    ev = queue_.top();
    queue_.pop();
  }
  assert(ev.t >= now_);
  now_ = ev.t;
  cursor_ = EventKey{ev.t, ev.seq};
  ++processed_;
  kEvents.add();
  obs::snapshot_tick(to_seconds(now_));
  if (event_budget_ != 0 || wall_limit_s_ > 0.0) check_watchdogs();
  EventSlot& slot = slot_at(ev.slot);
  // Destroy + recycle even when the action throws (invariant guards inside
  // Port/Host actions do); the slot stays live during the call so the action
  // may freely schedule new events.
  struct SlotGuard {
    Simulator& sim;
    std::uint32_t idx;
    ~SlotGuard() { sim.release_slot(idx); }
  } guard{*this, ev.slot};
  obs::ProfScope dispatch_scope("sim.dispatch");
  slot.ops->run_and_destroy(slot);
  return true;
}

void Simulator::run_until(PicoTime t_end) {
  obs::ScopedTimer timer(kRunNs, "sim.run");
  arm_wall_clock();
  while (!queue_.empty() && queue_.top().t <= t_end) run_one();
  if (now_ < t_end) now_ = t_end;
  // Every key at or before t_end has now run, reserved or queued.
  cursor_ = std::max(cursor_, EventKey{t_end, next_seq_});
  // The amortized in-loop check never fires when the queue drains first; a
  // run whose last few actions blew the budget must still abort.
  if (wall_limit_s_ > 0.0) throw_if_wall_expired();
}

void Simulator::run_all() {
  obs::ScopedTimer timer(kRunNs, "sim.run");
  arm_wall_clock();
  while (run_one()) {
  }
  if (wall_limit_s_ > 0.0) throw_if_wall_expired();
}

}  // namespace ecnd::sim
