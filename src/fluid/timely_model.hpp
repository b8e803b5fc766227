#pragma once
// TIMELY fluid models — paper Figure 7 (Equations 20-24), the Equation-28
// strict-gradient variant, and Patched TIMELY (Equations 29-30).
//
// State vector layout (packet units), struct-of-arrays per variable so each
// per-flow block is contiguous (see DESIGN.md):
//   x[0]          q    bottleneck queue (packets)
//   x[1 + i]      R_i  per-flow rate (packets/s)
//   x[1 + N + i]  g_i  per-flow normalized RTT gradient (dimensionless)
//
// Dynamics:
//   Eq 20: dq/dt  = sum_i R_i - C                         (clamped q >= 0)
//   Eq 21: dR_i/dt branches on the delayed queue sample q(t - tau') against
//          C*T_low / C*T_high and on the gradient sign (original TIMELY), or
//          uses the smooth weighted update of Eq 29 (patched TIMELY).
//   Eq 22: dg_i/dt = a/tau*_i * [-g_i + (q(t-tau') - q(t-tau'-tau*_i)) / (C D_minRTT)]
//   Eq 23: tau*_i  = max(Seg/R_i, D_minRTT)       (rate-update interval)
//   Eq 24: tau'    = q/C + MTU/C + D_prop         (state-dependent feedback delay)
//
// Feedback jitter (Figure 20): unlike ECN, delay-based feedback *is* the
// measurement itself — reverse-path jitter J(t) both postpones the sample and
// adds J(t) worth of apparent queueing. We therefore use the measured sample
//   q_hat(t) = q(t - tau' - J(t)) + C * J(t)
// in every place Algorithm 1 reads newRTT.

#include <algorithm>

#include "core/units.hpp"
#include "fluid/fluid_model.hpp"
#include "fluid/jitter.hpp"

namespace ecnd::fluid {

struct TimelyFluidParams {
  BitsPerSecond link_rate = gbps(10.0);  ///< bottleneck capacity C
  double mtu_bytes = 1000.0;
  int num_flows = 2;

  // Algorithm-1 parameters, defaults from [21] as quoted in the paper (§4.1).
  double beta = 0.8;            ///< multiplicative decrease factor
  /// Decrease factor of the RTT > T_high emergency branch. Original TIMELY
  /// uses `beta` here too; patched TIMELY shrinks `beta` to 0.008 for the
  /// gradient-zone term but must keep the emergency brake strong, otherwise
  /// overload beyond T_high can outrun the 0.8%-per-update decrease and the
  /// queue diverges (visible at packet level for ~16+ flows).
  double beta_high = 0.8;
  double alpha_ewma = 0.875;    ///< EWMA smoothing factor
  double t_low = 50e-6;         ///< T_low (s)
  double t_high = 500e-6;       ///< T_high (s)
  double d_min_rtt = 20e-6;     ///< D_minRTT normalization (s)
  BitsPerSecond delta = mbps(10.0);  ///< additive increase step
  Bytes segment = kilobytes(16.0);   ///< completion-event chunk size Seg
  double d_prop = 2e-6;         ///< propagation delay component of RTT

  /// Equation 28 variant: rate increases only for g < 0 (strictly), turning
  /// TIMELY's zero fixed points into infinitely many. Keeps everything else
  /// identical; the paper notes the two are indistinguishable in practice.
  bool strict_gradient_zero = false;

  JitterProcess feedback_jitter;  ///< reverse-path jitter (Figure 20)

  double capacity_pps() const { return link_rate / (8.0 * mtu_bytes); }
  double delta_pps() const { return delta / (8.0 * mtu_bytes); }
  double segment_pkts() const { return static_cast<double>(segment) / mtu_bytes; }
  double qlow_pkts() const { return capacity_pps() * t_low; }
  double qhigh_pkts() const { return capacity_pps() * t_high; }
  /// Base (queue-free) component of tau'.
  double base_feedback_delay() const { return 1.0 / capacity_pps() + d_prop; }
};

/// Constructor-time parameter checks shared by every TIMELY fluid model;
/// unlike assert() they hold in release builds. Requires T_low > 0 (patched
/// TIMELY divides by q' = C*T_low), T_high > T_low, D_minRTT > 0 (the
/// gradient divides by C*D_minRTT) and a feasible rate floor. Throws
/// InvariantViolation naming `component`.
void require_valid_timely_params(const char* component,
                                 const TimelyFluidParams& params);

/// Shared machinery of the original and patched models.
class TimelyFluidBase : public FluidModel {
 public:
  /// Rate floor (10 Mb/s at 1000B MTU): TIMELY's additive increase is
  /// 10 Mb/s per update, so lower rates are instantaneous transients, and
  /// the floor bounds tau* = Seg/R (and with it the history the solver must
  /// keep).
  static constexpr double kMinRatePps = 1250.0;
  /// The fluid queue is capped at this multiple of the T_high threshold;
  /// TIMELY's multiplicative decrease beyond T_high makes larger excursions
  /// unphysical, and the cap bounds the state-dependent feedback delay
  /// tau'(q).
  static constexpr double kQueueCapFactor = 4.0;

  /// The per-flow right-hand sides' constants, derived once from the
  /// parameters. Each field is a self-contained subexpression of the flow
  /// equations, and the expressions that read one keep their operand order,
  /// so hoisting it changes no result bit. Loops copy the struct into a
  /// local: a member read after a store through dxdt must be reloaded,
  /// since the compiler cannot rule out that the store aliased it.
  struct Coefficients {
    explicit Coefficients(const TimelyFluidParams& p);

    double capacity;        ///< C (packets/s)
    double delta;           ///< additive increase step (packets/s)
    double segment;         ///< Seg (packets)
    double d_min_rtt;       ///< D_minRTT (s)
    double qlow;            ///< C * T_low (packets); patched TIMELY's q'
    double qhigh;           ///< C * T_high (packets)
    double qcap;            ///< kQueueCapFactor * qhigh
    double base_delay;      ///< 1/C + D_prop, the queue-free part of tau'
    double gradient_scale;  ///< C * D_minRTT
    double beta;
    double beta_high;
    double alpha_ewma;

    /// Rate-update interval tau* (Equation 23).
    double update_interval(double rate_pps) const {
      const double r = std::max(rate_pps, kMinRatePps);
      return std::max(segment / r, d_min_rtt);
    }
    /// Feedback delay tau' (Equation 24), without jitter: q/C + MTU/C +
    /// D_prop, all in packet units (MTU/C = 1/C).
    double feedback_delay(double q_pkts) const {
      return q_pkts / capacity + base_delay;
    }
    /// The two flow-independent branches of Equations 21/29: additive
    /// increase while q_hat < qlow, the T_high brake while q_hat > qhigh.
    /// Writes drate[0, n) and returns true in those cases; returns false
    /// (writing nothing) when q_hat is inside the gradient band.
    bool threshold_rate_rhs(double q_hat, std::size_t n, const double* rate,
                            const double* tau_star, double* drate) const;
  };

  /// Throws InvariantViolation when the parameters fail
  /// require_valid_timely_params.
  explicit TimelyFluidBase(TimelyFluidParams params);

  const TimelyFluidParams& params() const { return params_; }

  int num_flows() const override { return params_.num_flows; }
  std::size_t queue_index() const override { return 0; }
  std::size_t rate_index(int flow) const override {
    return 1 + static_cast<std::size_t>(flow);
  }
  std::size_t gradient_index(int flow) const {
    return 1 + nflows() + static_cast<std::size_t>(flow);
  }
  std::vector<double> initial_state() const override;
  double suggested_dt() const override;
  double mtu_bytes() const override { return params_.mtu_bytes; }
  double capacity_pps() const override { return coef_.capacity; }

  std::size_t dim() const override {
    return 1 + 2 * static_cast<std::size_t>(params_.num_flows);
  }
  void clamp(std::span<double> x) const override;
  double max_delay() const override;
  /// Only the queue is ever read at the long tau' + tau* horizon; rates and
  /// gradients never enter the delayed terms, so the solver needs full rows
  /// just for its own stage-time bracketing. At 10k flows this shrinks
  /// retained history from gigabytes (2N+1-wide rows over ~30ms) to a
  /// queue-only side store.
  double max_row_delay() const override { return 0.0; }
  std::pair<std::size_t, std::size_t> deep_vars() const override {
    return {queue_index(), 1};
  }

  /// Rate-update interval tau*_i (Equation 23).
  double update_interval(double rate_pps) const {
    return coef_.update_interval(rate_pps);
  }
  /// Feedback delay tau' for the given queue (Equation 24), without jitter.
  double feedback_delay(double q_pkts) const {
    return coef_.feedback_delay(q_pkts);
  }

 protected:
  std::size_t nflows() const {
    return static_cast<std::size_t>(params_.num_flows);
  }

  /// Measured-queue lens shared by the gradient EWMA and the rate branches
  /// (previously recomputed by each): the jitter draw, the state-dependent
  /// feedback delay, and the delayed sample q_hat(t) = q(t - tau') + J(t)*C
  /// as seen by a sender at time t.
  struct MeasuredQueue {
    double jitter;     ///< J(t)
    double tau_prime;  ///< feedback_delay(q_now) + J(t)
    double q_hat;      ///< q(t - tau') + J(t) * C
  };
  MeasuredQueue measured_queue(double t, double q_now,
                               const History& past) const;

  /// Equation 20 into dxdt; returns the current queue q.
  double queue_rhs(std::span<const double> x, std::span<double> dxdt) const;

  /// Equation 22 into dxdt, leaving each flow's tau*_i in tau_star_buf_ for
  /// the rate branches.
  void gradient_rhs(double t, std::span<const double> x, const History& past,
                    const MeasuredQueue& mq, std::span<double> dxdt) const;

  TimelyFluidParams params_;
  const Coefficients coef_;
  // Scratch for the batched per-flow delayed queue lookups; models are
  // driven single-threaded per solver (like History's own lookup scratch).
  mutable std::vector<double> tau_star_buf_;
  mutable std::vector<double> lookup_times_;
  mutable std::vector<double> lookup_vals_;
};

/// Original TIMELY (Algorithm 1 / Equation 21, optionally Equation 28).
class TimelyFluidModel final : public TimelyFluidBase {
 public:
  using TimelyFluidBase::TimelyFluidBase;
  void rhs(double t, std::span<const double> x, const History& past,
           std::span<double> dxdt) const override;
};

/// §4.3 parameterization: patched TIMELY keeps all TIMELY defaults except
/// beta = 0.008 and Seg = 16KB; the reference queue q' is C*T_low.
TimelyFluidParams patched_timely_defaults();

/// Patched TIMELY (Algorithm 2 / Equations 29-30).
class PatchedTimelyFluidModel final : public TimelyFluidBase {
 public:
  explicit PatchedTimelyFluidModel(TimelyFluidParams params)
      : TimelyFluidBase(std::move(params)) {}

  /// Reference queue q' of Equation 29 (packets).
  double qref_pkts() const { return coef_.qlow; }

  /// Weighting function w(g) of Equation 30: a linear ramp from 0 at
  /// g = -1/4 to 1 at g = +1/4. Inline, since both patched models call it
  /// once per flow.
  static double weight(double gradient) {
    if (gradient <= -0.25) return 0.0;
    if (gradient >= 0.25) return 1.0;
    return 2.0 * gradient + 0.5;
  }

  /// Unique fixed-point queue length per Theorem 5 / Equation 31 (packets).
  double fixed_point_queue_pkts() const;

  void rhs(double t, std::span<const double> x, const History& past,
           std::span<double> dxdt) const override;
};

}  // namespace ecnd::fluid
