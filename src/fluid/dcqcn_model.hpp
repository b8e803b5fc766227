#pragma once
// DCQCN fluid model — paper Figure 1 (Equations 3-7), extended per-flow form.
//
// State vector layout (packet units), struct-of-arrays per variable so each
// per-flow block is contiguous (the delayed-rate block interpolates and the
// per-flow RHS remainder vectorizes; see DESIGN.md):
//   x[0]                 q     bottleneck queue (packets)
//   x[1 + i]             a_i   per-flow alpha (rate-reduction factor)
//   x[1 + N + i]         Rt_i  per-flow target rate (packets/s)
//   x[1 + 2N + i]        Rc_i  per-flow current rate (packets/s)
//
// Dynamics (delayed arguments marked with ~, delay tau* [+ jitter]):
//   Eq 3: p(q)  RED-style marking probability between Kmin and Kmax
//   Eq 4: dq/dt     = sum_i Rc_i - C                         (clamped q >= 0)
//   Eq 5: da_i/dt   = g/tau' * [1 - (1-~p)^{tau' ~Rc_i} - a_i]
//   Eq 6: dRt_i/dt  = -(Rt_i - Rc_i)/tau * [1 - (1-~p)^{tau ~Rc_i}]
//                     + R_AI ~Rc_i (1-~p)^{F B} ~p / ((1-~p)^{-B} - 1)
//                     + R_AI ~Rc_i (1-~p)^{F T ~Rc_i} ~p / ((1-~p)^{-T ~Rc_i} - 1)
//   Eq 7: dRc_i/dt  = -(Rc_i a_i)/(2 tau) * [1 - (1-~p)^{tau ~Rc_i}]
//                     + (Rt_i - Rc_i)/2 * ~Rc_i ~p / ((1-~p)^{-B} - 1)
//                     + (Rt_i - Rc_i)/2 * ~Rc_i ~p / ((1-~p)^{-T ~Rc_i} - 1)
//
// Optional jitter on tau* reproduces the Figure-20 experiment: ECN feedback
// arrives later but is otherwise undistorted, so jitter enters *only* as an
// increase in the lookup delay.

#include <cstdint>

#include "core/units.hpp"
#include "fluid/fluid_model.hpp"
#include "fluid/jitter.hpp"

namespace ecnd::fluid {

struct DcqcnFluidParams {
  // Link / topology.
  BitsPerSecond link_rate = gbps(10.0);  ///< bottleneck capacity C
  double mtu_bytes = 1000.0;             ///< packet size for unit conversion
  int num_flows = 2;                     ///< N

  // RED / ECN marking profile (Equation 3).
  Bytes kmin = kilobytes(40.0);
  Bytes kmax = kilobytes(200.0);
  double pmax = 0.01;
  /// Equation 3 saturates p to 1 for q > Kmax. The paper's own fixed-point
  /// expression (Equation 9) places q* beyond Kmax whenever p* > Pmax — for
  /// N more than a handful of flows at the default parameters — so its
  /// analysis implicitly continues the marking slope past Kmax. When true,
  /// the profile is p = Pmax * (q - Kmin)/(Kmax - Kmin) clamped to [0, 1]
  /// (the profile the paper's analysis effectively assumes); when false, it
  /// is Equation 3 verbatim with the hard jump to 1 at Kmax (what a real
  /// switch does, and what our packet-level CP implements). Default: the
  /// physical profile; the fixed-point/stability analysis layer flips this
  /// on, since the paper's Equations 9/14 only make sense on the extension.
  bool red_linear_extension = false;

  // RP/NP parameters ([31] defaults, as used throughout the paper).
  double g = 1.0 / 256.0;        ///< alpha gain
  double tau_cnp = 50e-6;        ///< CNP generation timer tau (s)
  double tau_alpha = 55e-6;      ///< alpha-update interval tau' (s)
  double timer_T = 55e-6;        ///< rate-increase timer T (s)
  Bytes byte_counter = megabytes(10.0);  ///< rate-increase byte counter B
  double fast_recovery_steps = 5.0;      ///< F
  BitsPerSecond rate_ai = mbps(40.0);    ///< additive increase step R_AI

  // Control loop.
  double feedback_delay = 4e-6;  ///< tau* (s)
  JitterProcess feedback_jitter; ///< optional extra delay (Figure 20)

  // Derived packet-unit quantities.
  double capacity_pps() const { return link_rate / (8.0 * mtu_bytes); }
  double rate_ai_pps() const { return rate_ai / (8.0 * mtu_bytes); }
  double kmin_pkts() const { return static_cast<double>(kmin) / mtu_bytes; }
  double kmax_pkts() const { return static_cast<double>(kmax) / mtu_bytes; }
  double byte_counter_pkts() const {
    return static_cast<double>(byte_counter) / mtu_bytes;
  }
};

class DcqcnFluidModel final : public FluidModel {
 public:
  /// RP rate floor (~1 Mb/s at 1000B MTU): rates below it are instantaneous
  /// transients, and the floor keeps the exponential terms well-scaled.
  static constexpr double kMinRatePps = 125.0;

  /// Throws InvariantViolation when Kmax <= Kmin (Equation 3 divides by
  /// Kmax - Kmin), when Pmax is outside (0, 1], or when num_flows *
  /// kMinRatePps exceeds the link capacity (the rate floor would pin demand
  /// above capacity forever). These checks hold in release builds too.
  explicit DcqcnFluidModel(DcqcnFluidParams params);

  const DcqcnFluidParams& params() const { return params_; }

  /// RED marking probability for a queue of q packets (Equation 3).
  double marking_probability(double q_pkts) const;

  // FluidModel interface.
  int num_flows() const override { return params_.num_flows; }
  std::size_t queue_index() const override { return 0; }
  std::size_t rate_index(int flow) const override {
    return 1 + 2 * nflows() + static_cast<std::size_t>(flow);
  }
  std::size_t alpha_index(int flow) const {
    return 1 + static_cast<std::size_t>(flow);
  }
  std::size_t target_rate_index(int flow) const {
    return 1 + nflows() + static_cast<std::size_t>(flow);
  }
  std::vector<double> initial_state() const override;
  double suggested_dt() const override;
  double mtu_bytes() const override { return params_.mtu_bytes; }
  double capacity_pps() const override { return coef_.capacity; }

  // DdeSystem interface.
  std::size_t dim() const override {
    return 1 + 3 * static_cast<std::size_t>(params_.num_flows);
  }
  void rhs(double t, std::span<const double> x, const History& past,
           std::span<double> dxdt) const override;
  void clamp(std::span<double> x) const override;
  double max_delay() const override {
    return params_.feedback_delay + params_.feedback_jitter.amplitude();
  }

  /// The per-flow time derivatives given *explicit* delayed values; exposed
  /// so the control-theory layer can linearize exactly this function.
  struct FlowDerivatives {
    double dalpha;
    double dtarget;
    double drate;
  };
  FlowDerivatives flow_rhs(double alpha, double rt, double rc,
                           double p_delayed, double rc_delayed) const;

 private:
  std::size_t nflows() const {
    return static_cast<std::size_t>(params_.num_flows);
  }

  /// The flow equations' constants, derived once from the parameters. Each
  /// field is a self-contained subexpression of Equations 3-7, and the
  /// expressions that read one keep their operand order, so hoisting it
  /// changes no result bit. flows_rhs() copies the struct into a local: a
  /// member read after a store through dxdt must be reloaded, since the
  /// compiler cannot rule out that the store aliased it.
  struct Coefficients {
    explicit Coefficients(const DcqcnFluidParams& p);

    double capacity;             ///< C (packets/s)
    double kmin;                 ///< Kmin (packets)
    double kmax;                 ///< Kmax (packets)
    double kspan;                ///< Kmax - Kmin (packets)
    double pmax;
    double byte_counter;         ///< B (packets)
    double fast_recovery_bytes;  ///< F * B (packets)
    double fast_recovery;        ///< F
    double timer;                ///< T (s)
    double tau_cnp;              ///< tau (s)
    double two_tau_cnp;          ///< 2 tau (s)
    double tau_alpha;            ///< tau' (s)
    double alpha_gain;           ///< g / tau'
    double rate_ai;              ///< R_AI (packets/s)
  };

  /// Marking terms that depend only on the delayed marking probability, not
  /// on the flow: computed once per rhs() call instead of once per flow.
  /// l = log1p(-p) is additionally shared by every per-flow exponential
  /// term, so one rhs() evaluation pays one log1p total. All expressions
  /// (and their p->0 / p->1 guards) are verbatim those of the per-flow
  /// helpers, so results are bit-identical to evaluating them per flow.
  struct MarkingShared {
    double p;            ///< clamped delayed marking probability
    double l;            ///< log1p(-p)
    double byte_factor;  ///< p / ((1-p)^{-B} - 1), limit 1/B
    double byte_ai;      ///< (1-p)^{F B}
  };
  static MarkingShared make_marking_shared(const Coefficients& k,
                                           double p_delayed);

  /// The remaining per-flow terms that depend only on (p, delayed rate) —
  /// every transcendental the flow RHS needs. In symmetric many-flow runs
  /// the delayed rates are bitwise identical across flows, so rhs() memoizes
  /// one RateShared per distinct delayed-rate value and the 10k-flow hot
  /// loop pays ~one expm1/exp set per evaluation instead of 10k.
  struct RateShared {
    double rcd;                 ///< delayed rate clamped to kMinRatePps
    double cnp_prob_tau;        ///< 1 - (1-p)^{tau Rc}
    double cnp_prob_tau_alpha;  ///< 1 - (1-p)^{tau' Rc}
    double timer_factor;        ///< p / ((1-p)^{-T Rc} - 1), limit 1/(T Rc)
    double ai_byte;             ///< R_AI Rc (1-p)^{F B} p / ((1-p)^{-B} - 1)
    double ai_timer;            ///< timer-counter twin of ai_byte
  };
  static RateShared make_rate_shared(const Coefficients& k,
                                     const MarkingShared& m,
                                     double rc_delayed);
  static FlowDerivatives flow_rhs_from(const Coefficients& k, double alpha,
                                       double rt, double rc,
                                       const MarkingShared& m,
                                       const RateShared& r);

  /// Equations 5-7 for every flow: reads the alpha, target-rate and rate
  /// blocks of x that start at alpha_begin (the SoA order both DCQCN models
  /// share) plus the delayed rates, and writes the same blocks of dxdt.
  void flows_rhs(const MarkingShared& m, const double* rc_delayed,
                 std::span<const double> x, std::size_t alpha_begin,
                 std::span<double> dxdt) const;

  // The PI variant reuses these flow dynamics with its own marking source.
  friend class DcqcnPiFluidModel;

  DcqcnFluidParams params_;
  const Coefficients coef_;
};

}  // namespace ecnd::fluid
