#pragma once
// Sim-time event tracer: ring-buffered records exported as Chrome
// trace-event JSON (load the file at https://ui.perfetto.dev).
//
// Timestamps are SIMULATION time in microseconds — the packet simulator's
// integer picoseconds and the fluid solver's continuous seconds both convert
// to the same axis — so a trace shows what the *scenario* did, not what the
// host CPU did (wall-clock lives in the profiling histograms, never here).
//
// Each sweep task writes into its own fixed-capacity ring buffer, held in
// the per-task store (obs/task_store.hpp; task 0 is the main thread).
// Exported events carry the task index as their pid, so a 12-task sweep
// renders as 12 process tracks and the byte-for-byte output depends only on
// the grid — never on ECND_THREADS or scheduling.
//
// Overflow policy: a full ring overwrites its OLDEST record (the tail of a
// run is usually the interesting part) and counts what it dropped; the count
// is reported in the export and via trace_dropped_total().
//
// Runtime knobs: ECND_TRACE=<path> arms tracing and writes the JSON at
// process exit; ECND_TRACE_CAP=<n> resizes the per-task ring (default 65536
// events). Idle, a hook costs one relaxed load.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <utility>
#include <vector>

#include "obs/task_store.hpp"

namespace ecnd::obs {

namespace detail {
extern std::atomic<bool> g_trace_on;
void trace_push(const char* name, char phase, double ts_us, double value,
                std::uint64_t id);
/// Drop every buffer (obs::reset's trace half).
void trace_reset();
}  // namespace detail

inline bool trace_enabled() {
  return detail::g_trace_on.load(std::memory_order_relaxed);
}

/// Programmatic override (tests). ECND_TRACE arms this at startup.
void set_trace_enabled(bool on);

/// Per-task ring capacity in events. Applies to buffers created after the
/// call; reset() drops existing buffers so tests can shrink the ring.
void set_trace_capacity(std::size_t events);

/// Point event ("something happened at sim time ts"). `name` must outlive
/// the tracer: a string literal or an obs::intern()ed string.
inline void trace_instant(const char* name, double ts_us, double value = 0.0,
                          std::uint64_t id = 0) {
  if (trace_enabled()) detail::trace_push(name, 'i', ts_us, value, id);
}

/// Counter-track sample (queue depth, rate register): renders as a stepped
/// area chart per (task, name) in Perfetto.
inline void trace_counter(const char* name, double ts_us, double value) {
  if (trace_enabled()) detail::trace_push(name, 'C', ts_us, value, 0);
}

/// Events dropped to ring overflow, summed over all task buffers.
std::uint64_t trace_dropped_total();

/// Per-task drop counts, task index order, tasks with zero drops omitted.
/// The run manifest embeds this so a truncated trace can't masquerade as
/// complete to ecnd-report.
std::vector<std::pair<std::uint32_t, std::uint64_t>> trace_dropped_by_task();

/// Write every buffered event as Chrome trace-event JSON, tasks in index
/// order, events in emission order within a task. Deterministic for a
/// deterministic run at any thread count.
void write_trace_json(std::ostream& out);

}  // namespace ecnd::obs
