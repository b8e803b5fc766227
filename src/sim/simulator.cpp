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

// -- Tagged events / checkpointing ------------------------------------------

void Simulator::tagged_run_and_destroy(EventSlot& s) {
  // Copy the POD out before dispatching: the handler may schedule new events
  // and those must not read a payload we are still aliasing.
  const TaggedEvent ev =
      *std::launder(reinterpret_cast<TaggedEvent*>(s.inline_buf));
  ev.sim->dispatch_tagged(ev.tag, ev.a, ev.b);
}

const Simulator::SlotOps Simulator::kTaggedOps{
    &Simulator::tagged_run_and_destroy,
    // TaggedEvent is trivially destructible; teardown needs no work.
    [](EventSlot&) {}};

void Simulator::register_handler(std::uint16_t tag, TaggedHandler handler) {
  if (handlers_.size() <= tag) handlers_.resize(std::size_t{tag} + 1);
  handlers_[tag] = std::move(handler);
}

void Simulator::schedule_tagged_at(PicoTime t, std::uint16_t tag,
                                   std::uint64_t a, std::uint64_t b) {
  t = clamp_schedule(t);
  const std::uint32_t idx = acquire_slot();
  EventSlot& slot = slot_at(idx);
  ::new (static_cast<void*>(slot.inline_buf)) TaggedEvent{this, a, b, tag};
  slot.ops = &kTaggedOps;
  try {
    obs::ProfScope heap_scope("sim.heap_push");
    queue_.push(QueuedEvent{t, next_seq_, idx});
  } catch (...) {
    release_slot(idx);
    throw;
  }
  ++next_seq_;
}

void Simulator::dispatch_tagged(std::uint16_t tag, std::uint64_t a,
                                std::uint64_t b) {
  if (tag >= handlers_.size() || !handlers_[tag]) {
    throw InvariantViolation(Diagnostic::make(
        "Simulator", "tagged_event_tag", to_seconds(now_),
        static_cast<double>(tag),
        "tagged event fired with no registered handler (register_handler "
        "after restore?)"));
  }
  handlers_[tag](a, b);
}

bool Simulator::checkpointable() const {
  for (const QueuedEvent& e : queue_.entries()) {
    if (slot_at(e.slot).ops != &kTaggedOps) return false;
  }
  return true;
}

void Simulator::save(std::ostream& out) const {
  std::vector<QueuedEvent> pending(queue_.entries());
  std::size_t untagged = 0;
  for (const QueuedEvent& e : pending) {
    if (slot_at(e.slot).ops != &kTaggedOps) ++untagged;
  }
  if (untagged != 0) {
    throw SnapshotError(
        std::to_string(untagged) +
        " pending event(s) are closures, not tagged events; only "
        "tagged-event simulations are checkpointable");
  }
  // Canonical payload order is schedule order (seq): the heap's internal
  // layout is an implementation detail and must not leak into the bytes.
  std::sort(pending.begin(), pending.end(),
            [](const QueuedEvent& a, const QueuedEvent& b) {
              return a.seq < b.seq;
            });
  SnapshotWriter w(SnapshotKind::kSimulator);
  w.i64(now_);
  w.u64(next_seq_);
  w.u64(processed_);
  w.u64(late_schedules_);
  w.u64(next_unused_);  // arena size, so pool-reuse counts continue identically
  w.u64(pending.size());
  for (const QueuedEvent& e : pending) {
    const TaggedEvent& ev = *std::launder(
        reinterpret_cast<const TaggedEvent*>(slot_at(e.slot).inline_buf));
    w.i64(e.t);
    w.u64(e.seq);
    w.u16(ev.tag);
    w.u64(ev.a);
    w.u64(ev.b);
  }
  w.finish(out);
}

void Simulator::restore(std::istream& in) {
  if (next_seq_ != 0 || processed_ != 0 || !queue_.empty() ||
      next_unused_ != 0) {
    throw SnapshotError(
        "restore target is not a fresh simulator (events already scheduled "
        "or processed)");
  }
  SnapshotReader r(in, SnapshotKind::kSimulator);
  const PicoTime now = r.i64();
  const std::uint64_t next_seq = r.u64();
  const std::uint64_t processed = r.u64();
  const std::uint64_t late = r.u64();
  const std::uint64_t arena = r.u64();
  const std::uint64_t count = r.u64();
  if (arena >= kNoSlot || count > arena) {
    throw SnapshotError("implausible event-pool shape (arena " +
                        std::to_string(arena) + ", pending " +
                        std::to_string(count) + ")");
  }
  struct Pending {
    PicoTime t;
    std::uint64_t seq;
    std::uint16_t tag;
    std::uint64_t a;
    std::uint64_t b;
  };
  std::vector<Pending> events;
  events.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    Pending p;
    p.t = r.i64();
    p.seq = r.u64();
    p.tag = r.u16();
    p.a = r.u64();
    p.b = r.u64();
    if (p.t < now) {
      throw SnapshotError("pending event earlier than the snapshot clock");
    }
    if (p.seq >= next_seq) {
      throw SnapshotError("pending event seq beyond the sequence counter");
    }
    events.push_back(p);
  }
  r.finish();
  // Everything validated — commit. The arena is grown directly rather than
  // through acquire_slot() so restoring never counts sim.event_pool_reuse;
  // pending events take slots [0, count) with their ORIGINAL (t, seq) keys,
  // the remaining [count, arena) slots rebuild the free list, leaving the
  // pool in exactly the shape the original simulator had at save() time.
  while (chunks_.size() * kSlotsPerChunk < arena) {
    chunks_.push_back(std::make_unique<EventSlot[]>(kSlotsPerChunk));
  }
  next_unused_ = static_cast<std::uint32_t>(arena);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::uint32_t idx = static_cast<std::uint32_t>(i);
    EventSlot& slot = slot_at(idx);
    ::new (static_cast<void*>(slot.inline_buf))
        TaggedEvent{this, events[i].a, events[i].b, events[i].tag};
    slot.ops = &kTaggedOps;
    queue_.push(QueuedEvent{events[i].t, events[i].seq, idx});
  }
  free_head_ = kNoSlot;
  for (std::uint32_t idx = static_cast<std::uint32_t>(count);
       idx < next_unused_; ++idx) {
    release_slot(idx);
  }
  now_ = now;
  next_seq_ = next_seq;
  processed_ = processed;
  late_schedules_ = late;
}

}  // namespace ecnd::sim
