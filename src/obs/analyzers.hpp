#pragma once
// Derived-observable analyzers: the semantic layer between raw telemetry
// (counters, traces, recorded TimeSeries) and the paper's claims. Every
// claim in EXPERIMENTS.md is stated in terms of quantities like "time to
// converge to the Theorem-1 fixed point", "peak-to-peak oscillation where
// the phase margin goes negative", "Jain fairness over the settled tail" or
// "queue overshoot above the RED band" — these analyzers compute exactly
// those, so run manifests (obs/manifest.hpp) and the expectation-gated
// regression report (src/report) can check them by machine instead of by
// eye.
//
// Each analyzer has two faces:
//   * online: construct, push(t, value) as samples arrive, read the result.
//     Every push is O(1) and allocation-free on the hot path (the fairness
//     probe appends one summary point per *window*, never per sample), so
//     an analyzer can ride inside a live simulation without buffering the
//     full series.
//   * offline: a free function that replays a recorded core::TimeSeries
//     (restricted to a [t0, t1] analysis window) through the same streaming
//     state machine, so both paths agree by construction.
//
// Analyzers are pure computation — no globals, no output, no RNG — so they
// run the same whether or not any obs export is armed.

#include <cstddef>
#include <optional>
#include <vector>

#include "core/timeseries.hpp"

namespace ecnd::obs {

// ---------------------------------------------------------------------------
// SettlingTime: when did the signal enter an ε-band around a target and stay
// there? This is "convergence time to the Theorem-1 / Eq-14 fixed point".
// ---------------------------------------------------------------------------

struct SettlingParams {
  double target = 0.0;   ///< band center (the predicted fixed point)
  double epsilon = 0.0;  ///< half-width: inside means |v - target| <= epsilon
  /// The signal only counts as settled if its final in-band stretch lasted
  /// at least this long (guards against a run that *ends* mid-swing inside
  /// the band). 0 = any non-empty stretch.
  double min_dwell = 0.0;
};

struct SettlingResult {
  bool settled = false;
  /// Absolute time of the final entry into the band (linearly interpolated
  /// between the last outside sample and the first inside one). Subtract the
  /// flow/scenario start time for a duration. Valid only when settled.
  double settle_t = 0.0;
  /// How long the signal had been inside the band when observation ended.
  double dwell = 0.0;
  double final_value = 0.0;
  /// Time the signal was last observed outside the band (diagnostic; equals
  /// the first sample time if it never was).
  double last_outside_t = 0.0;
};

class SettlingTime {
 public:
  explicit SettlingTime(SettlingParams params) : p_(params) {}

  void push(double t, double v);
  SettlingResult result() const;

 private:
  SettlingParams p_;
  bool any_ = false;
  bool inside_ = false;
  double entry_t_ = 0.0;  // start of the current in-band stretch
  double first_t_ = 0.0;
  double last_t_ = 0.0;
  double last_v_ = 0.0;
  double last_outside_t_ = 0.0;
};

/// Offline replay over samples with t in [t0, t1].
SettlingResult settling_time(const TimeSeries& series, SettlingParams params,
                             double t0, double t1);

// ---------------------------------------------------------------------------
// Overshoot: largest excursion above a target before/while settling —
// "queue overshoot above the RED band" (Figures 2, 12, 16).
// ---------------------------------------------------------------------------

struct OvershootResult {
  double max_excursion = 0.0;  ///< max(v - target, 0) over the window
  double peak_t = 0.0;         ///< time of the peak excursion
  double peak_value = 0.0;     ///< the value at the peak
  /// Fraction of observed time spent above the target (trapezoidal on the
  /// indicator's linear crossings).
  double time_above_fraction = 0.0;
};

class Overshoot {
 public:
  explicit Overshoot(double target) : target_(target) {}

  void push(double t, double v);
  OvershootResult result() const;

 private:
  double target_ = 0.0;
  bool any_ = false;
  double max_excursion_ = 0.0;
  double peak_t_ = 0.0;
  double peak_value_ = 0.0;
  double first_t_ = 0.0;
  double last_t_ = 0.0;
  double last_v_ = 0.0;
  double time_above_ = 0.0;
};

OvershootResult overshoot(const TimeSeries& series, double target, double t0,
                          double t1);

// ---------------------------------------------------------------------------
// OscillationProbe: peak-to-peak amplitude and dominant period over a
// steady-state window, via hysteresis-filtered crossings of a reference
// level — "oscillation amplitude/period where phase margins go negative"
// (Figures 3-5, 11).
// ---------------------------------------------------------------------------

struct OscillationParams {
  /// Crossing reference (typically the predicted fixed point or the window
  /// mean). The offline wrapper defaults it to the window's time-weighted
  /// mean when not supplied.
  double reference = 0.0;
  /// A crossing only registers after the signal moves at least this far
  /// beyond the reference on the other side (noise rejection). 0 = count
  /// every sign change.
  double hysteresis = 0.0;
};

struct OscillationResult {
  double peak_to_peak = 0.0;  ///< max - min over the window
  /// Dominant period from the mean half-period between reference crossings:
  /// 2 * (last crossing - first crossing) / (crossings - 1). 0 when fewer
  /// than two crossings were seen (no oscillation to speak of).
  double period = 0.0;
  int crossings = 0;
  double mean = 0.0;  ///< time-weighted (trapezoidal) mean of the window
  double min = 0.0;
  double max = 0.0;
};

class OscillationProbe {
 public:
  explicit OscillationProbe(OscillationParams params) : p_(params) {}

  void push(double t, double v);
  OscillationResult result() const;

 private:
  enum class Side { kUnknown, kAbove, kBelow };

  OscillationParams p_;
  bool any_ = false;
  Side side_ = Side::kUnknown;
  int crossings_ = 0;
  double first_cross_t_ = 0.0;
  double last_cross_t_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double area_ = 0.0;  // trapezoidal integral for the mean
  double first_t_ = 0.0;
  double last_t_ = 0.0;
  double last_v_ = 0.0;
};

/// Offline replay over [t0, t1]. When `reference` is not given, the window's
/// time-weighted mean is used (computed in a first pass).
OscillationResult oscillation(const TimeSeries& series, double t0, double t1,
                              std::optional<double> reference = std::nullopt,
                              double hysteresis = 0.0);

// ---------------------------------------------------------------------------
// WindowedFairness: Jain's index over tumbling windows of the per-flow rate
// vector — "fairness trajectories" (Figures 9, 19). Push the whole rate
// vector per sample instant; each completed window contributes one
// (window end, Jain index) point computed from per-flow time-weighted means.
// ---------------------------------------------------------------------------

struct FairnessResult {
  /// One point per completed window: t = window end, value = Jain index.
  std::vector<Sample> windows;
  std::optional<double> last;  ///< most recent completed window
  std::optional<double> min;   ///< worst window seen
};

class WindowedFairness {
 public:
  WindowedFairness(std::size_t flows, double window);

  /// `rates` must have exactly `flows` entries; t non-decreasing.
  void push(double t, const double* rates, std::size_t n);
  void push(double t, const std::vector<double>& rates) {
    push(t, rates.data(), rates.size());
  }

  /// Close the trailing partial window (if it covers any time) and return
  /// everything observed so far.
  FairnessResult finish();
  /// Completed windows only (no partial flush); cheap accessor.
  const std::vector<Sample>& windows() const { return windows_; }

 private:
  void close_window(double end_t);

  std::size_t flows_ = 0;
  double window_ = 0.0;
  bool any_ = false;
  double window_start_ = 0.0;
  double last_t_ = 0.0;
  std::vector<double> last_rates_;
  std::vector<double> integral_;  // per-flow trapezoid area in current window
  std::vector<Sample> windows_;
};

/// Offline fairness over per-flow recorded series: samples each flow's series
/// on a uniform dt grid across [t0, t1] (linear interpolation) and feeds the
/// streaming probe. All series must be non-empty.
FairnessResult windowed_jain(const std::vector<const TimeSeries*>& flows,
                             double window, double dt, double t0, double t1);

/// Plain Jain index of a snapshot vector: (Σx)² / (n·Σx²). Empty or all-zero
/// input yields nullopt (0/0 is not a fairness measurement).
std::optional<double> jain_index(const double* values, std::size_t n);

}  // namespace ecnd::obs
