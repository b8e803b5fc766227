#pragma once
// Structured invariant-violation reporting shared by the packet simulator and
// the fluid engine.
//
// Every engine-level sanity check (non-finite fluid state, negative queue
// occupancy, runaway rate register, exhausted event budget, ...) fails by
// throwing InvariantViolation carrying a Diagnostic, so a corrupted run dies
// loudly at the first bad state — with enough context to attribute it — rather
// than silently emitting garbage CSVs. The guards that decide *what* to check
// live next to each engine (sim/, fluid/) and in src/robust; this header only
// defines the report format they share.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace ecnd {

/// The report attached to a tripped invariant: which component, which
/// variable, when, and the last state known to be good.
struct Diagnostic {
  std::string component;  ///< e.g. "DdeSolver", "Port sw0:p2", "Host h3"
  std::string variable;   ///< e.g. "q", "flow2.rate", "queued_bytes[1]"
  double time = 0.0;      ///< simulation time in seconds
  double value = 0.0;     ///< the offending value (NaN/negative/over-bound)
  std::string detail;     ///< free-form explanation of the check that fired

  /// Grid index of the sweep task the violation escaped from (-1 outside a
  /// sweep). Stamped by the parallel engine so a one-cell failure in a
  /// thousand-cell sweep is attributable without re-running anything.
  std::int64_t task_index = -1;

  /// Last accepted state before the violation (fluid engine only; empty for
  /// packet-level checks, which have no single state vector).
  double last_good_time = 0.0;
  std::vector<double> last_good_state;

  /// One-line human-readable rendering (multi-line when a last-good state is
  /// attached).
  std::string to_string() const;

  /// Builder for the common five fields (last-good state attached later).
  static Diagnostic make(std::string component, std::string variable,
                         double time, double value, std::string detail) {
    Diagnostic d;
    d.component = std::move(component);
    d.variable = std::move(variable);
    d.time = time;
    d.value = value;
    d.detail = std::move(detail);
    return d;
  }
};

namespace detail {
/// Bumps the robust.invariant_violations metric (defined in diagnostic.cpp
/// so this header does not pull in the observability layer).
void note_invariant_violation();
}  // namespace detail

/// Thrown by engine guards when a run leaves its feasible region.
class InvariantViolation : public std::runtime_error {
 public:
  explicit InvariantViolation(Diagnostic diag)
      : std::runtime_error(diag.to_string()), diag_(std::move(diag)) {
    detail::note_invariant_violation();
  }

  /// Tag for rethrowing an already-counted violation with extra context
  /// (e.g. its sweep task index, or a suppressed-failure note). Skips the
  /// robust.invariant_violations bump so one violation is never counted
  /// twice however many annotation hops it takes to the top.
  struct Annotated {};
  static constexpr Annotated kAnnotated{};
  InvariantViolation(Diagnostic diag, Annotated)
      : std::runtime_error(diag.to_string()), diag_(std::move(diag)) {}

  const Diagnostic& diagnostic() const { return diag_; }

 private:
  Diagnostic diag_;
};

/// A precondition that must hold in release builds too, where assert()
/// compiles out: throws InvariantViolation naming `component` and
/// `variable`, with the offending `value`, unless `ok`.
inline void require_precondition(bool ok, const char* component,
                                 const char* variable, double value,
                                 const char* detail) {
  if (ok) return;
  throw InvariantViolation(
      Diagnostic::make(component, variable, 0.0, value, detail));
}

}  // namespace ecnd
