#pragma once
// Hierarchical wall-clock profiler: RAII scopes feeding Domain::kWall
// histograms AND a per-thread call tree exported as folded-stack text.
//
// Two layers, independently armed:
//   * ScopedTimer (metrics_enabled): brackets a region and records its
//     duration in nanoseconds into a histogram on destruction. Derived
//     figures — ns per simulated event, ns per RK4 step — come from dividing
//     a prof.* histogram's sum by the matching sim-domain counter. Gated
//     per-layer costs come from the benchmark in ecndbench/ instead.
//   * The frame stack (profile_enabled, armed by ECND_PROF=<prefix>): every
//     ScopedTimer with a label, and every ProfScope, pushes a frame onto a
//     TLS stack. Nested scopes form a call tree per thread — node = (parent,
//     name), with hit count and total ns — merged across threads by name
//     path at export and written as <prefix>.prof.folded, one
//     "a;b;c value" line per stack, ready for flamegraph.pl / speedscope.
//
// Determinism: the folded value is the HIT COUNT by default — a pure
// function of the scenario, so the file is byte-identical at any
// ECND_THREADS. ECND_PROF_WALL=1 switches the value to self-nanoseconds
// (what flamegraphs usually want; inherently run-specific). Frames that
// must not inherit their caller's stack (a sweep task timed from whichever
// worker picked it up) pass Anchor::kDetached and anchor at the root, so
// the tree shape never depends on the schedule.
//
// When the relevant flag is off construction takes one
// branch and the clock is never read. Depth is capped at 64 frames; deeper
// scopes are counted as dropped but still time their histogram.
//
// Export discipline matches the other obs modules: collect while sweeps run,
// export after workers joined (process exit or an explicit write call).

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace ecnd::obs {

/// One merged call-tree node (pre-order flattening; depth gives the shape).
/// self_ns = total_ns minus children's total_ns, clamped at 0.
struct ProfileNode {
  std::string name;
  int depth = 0;
  std::uint64_t hits = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

/// How a frame attaches to the tree. kDetached anchors at the root no matter
/// what is on the caller's stack — required for frames whose caller is a
/// scheduling accident (sweep tasks under par.sweep on the main thread but
/// not on workers).
enum class Anchor : std::uint8_t { kNested, kDetached };

namespace detail {
extern std::atomic<bool> g_prof_on;
/// High bit of a prof_enter token: the frame was NOT pushed (disabled race
/// or depth cap) and prof_exit must ignore it.
inline constexpr std::uint32_t kInert = 0x80000000u;
/// Push a frame named `name` (literal or intern()ed) under the current
/// frame (or the root when detached). Returns the token prof_exit needs.
std::uint32_t prof_enter(const char* name, bool detach);
/// Pop the current frame, charging it `ns`. No-op for kInert tokens.
void prof_exit(std::uint32_t token, std::uint64_t ns);
/// Zero every node's hits and ns but keep the tree structure (thread-local
/// cursors stay valid). obs::reset's profiler half.
void prof_reset();
/// Frames dropped to the depth cap (diagnostics).
std::uint64_t prof_depth_dropped();
}  // namespace detail

inline bool profile_enabled() {
  return detail::g_prof_on.load(std::memory_order_relaxed);
}

/// Programmatic override (tests). ECND_PROF arms this at startup.
void set_profile_enabled(bool on);

/// Frame-only scope for sub-regions that have no histogram of their own
/// (heap ops, route resolution, RHS evaluation, history lookups).
class ProfScope {
 public:
  explicit ProfScope(const char* name, Anchor anchor = Anchor::kNested)
      : token_(detail::kInert) {
    if (profile_enabled()) {
      token_ = detail::prof_enter(name, anchor == Anchor::kDetached);
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ProfScope() {
    if ((token_ & detail::kInert) == 0) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
      detail::prof_exit(token_, ns > 0 ? static_cast<std::uint64_t>(ns) : 0);
    }
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  std::uint32_t token_;
  std::chrono::steady_clock::time_point start_;
};

/// Histogram timer, optionally doubling as a named frame when `label` is
/// given and the profiler is armed.
class ScopedTimer {
 public:
  explicit ScopedTimer(const Histogram& hist, const char* label = nullptr)
      : hist_(hist), armed_(metrics_enabled()), token_(detail::kInert) {
    if (label != nullptr && profile_enabled()) {
      token_ = detail::prof_enter(label, false);
    }
    if (armed_ || (token_ & detail::kInert) == 0) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedTimer() {
    const bool framed = (token_ & detail::kInert) == 0;
    if (!armed_ && !framed) return;
    const auto raw = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - start_)
                         .count();
    const std::uint64_t ns = raw > 0 ? static_cast<std::uint64_t>(raw) : 0;
    if (armed_) hist_.record(ns);
    if (framed) detail::prof_exit(token_, ns);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  const Histogram& hist_;
  bool armed_;
  std::uint32_t token_;
  std::chrono::steady_clock::time_point start_;
};

/// Merged (all threads, by name path) call tree, pre-order, children in
/// name order. Call after workers joined.
std::vector<ProfileNode> profile_nodes();

/// Folded-stack text: one "name;name;... value" line per node, stacks in
/// depth-first name order. wall_values selects self-ns (run-specific)
/// instead of the default hit count (deterministic).
void write_profile_folded(std::ostream& out, bool wall_values = false);

/// Write <prefix>.prof.folded (the ECND_PROF exit path; wall_values mirrors
/// ECND_PROF_WALL).
void write_profile_folded_file(const char* prefix, bool wall_values = false);

}  // namespace ecnd::obs
