#pragma once
// PI-controller variants of the two fluid models (paper §5.2, Equation 32,
// Figures 18-19).
//
// DCQCN + PI: the switch replaces the RED profile of Equation 3 with an
// integral controller on the queue error,
//     dp/dt = K1 * dq/dt + K2 * (q - q_ref),
// and senders use that p exactly as before. Because the controller drives
// the *common* queue error to zero, the fixed point has q = q_ref for any
// number of flows, and DCQCN's own dynamics still equalize the rates
// (Figure 18: fairness AND a configured queue).
//
// Patched TIMELY + PI: each *end host* runs its own integral controller on
// its delayed RTT measurement, producing an internal per-flow variable p_i
// that replaces the (q - q') / q' term of Equation 29. The queue error is
// again driven to zero — but each p_i is an independent integrator, so the
// per-flow rates R_i = f(p_i) retain arbitrary ratios: delay is guaranteed,
// fairness is not (Figure 19, the constructive half of Theorem 6).

#include "fluid/dcqcn_model.hpp"
#include "fluid/timely_model.hpp"

namespace ecnd::fluid {

struct PiControllerParams {
  double qref_pkts = 50.0;  ///< reference queue length (packets)
  double k_p = 4e-5;        ///< proportional gain (per packet of dq/dt)
  double k_i = 0.004;       ///< integral gain (per packet of error, per second)
};

/// DCQCN with PI marking at the switch. State layout (struct-of-arrays like
/// DcqcnFluidModel):
///   x[0] = q, x[1] = p (marking probability, now a controller state),
///   x[2 + i] = alpha_i, x[2 + N + i] = Rt_i, x[2 + 2N + i] = Rc_i.
class DcqcnPiFluidModel final : public FluidModel {
 public:
  DcqcnPiFluidModel(DcqcnFluidParams params, PiControllerParams pi);

  const DcqcnFluidParams& params() const { return params_; }
  const PiControllerParams& pi() const { return pi_; }

  int num_flows() const override { return params_.num_flows; }
  std::size_t queue_index() const override { return 0; }
  std::size_t marking_index() const { return 1; }
  std::size_t alpha_index(int flow) const {
    return 2 + static_cast<std::size_t>(flow);
  }
  std::size_t target_rate_index(int flow) const {
    return 2 + nflows() + static_cast<std::size_t>(flow);
  }
  std::size_t rate_index(int flow) const override {
    return 2 + 2 * nflows() + static_cast<std::size_t>(flow);
  }

  std::vector<double> initial_state() const override;
  double suggested_dt() const override { return flow_dynamics_.suggested_dt(); }
  double mtu_bytes() const override { return params_.mtu_bytes; }
  double capacity_pps() const override { return params_.capacity_pps(); }

  std::size_t dim() const override {
    return 2 + 3 * static_cast<std::size_t>(params_.num_flows);
  }
  void rhs(double t, std::span<const double> x, const History& past,
           std::span<double> dxdt) const override;
  void clamp(std::span<double> x) const override;
  double max_delay() const override { return flow_dynamics_.max_delay(); }

 private:
  std::size_t nflows() const {
    return static_cast<std::size_t>(params_.num_flows);
  }

  DcqcnFluidParams params_;
  PiControllerParams pi_;
  DcqcnFluidModel flow_dynamics_;  ///< reused for the per-flow RP equations
};

struct TimelyPiParams {
  double qref_pkts = 300.0;  ///< reference queue (300KB at 1000B MTU, Fig 19)
  double k_p = 1e-4;         ///< proportional gain, per normalized error, per update
  double k_i = 2e-3;         ///< integral gain, per normalized error-second, per update
};

/// Patched TIMELY where the end host derives the feedback p_i from a local
/// PI controller over its delayed queue observation. State layout
/// (struct-of-arrays like the base model):
///   x[0] = q, x[1 + i] = R_i, x[1 + N + i] = g_i, x[1 + 2N + i] = p_i.
class PatchedTimelyPiFluidModel final : public FluidModel {
 public:
  /// Throws InvariantViolation when the TIMELY parameters fail
  /// require_valid_timely_params or qref lies outside (C*T_low, C*T_high).
  PatchedTimelyPiFluidModel(TimelyFluidParams params, TimelyPiParams pi);

  const TimelyFluidParams& params() const { return params_; }
  const TimelyPiParams& pi() const { return pi_; }

  int num_flows() const override { return params_.num_flows; }
  std::size_t queue_index() const override { return 0; }
  std::size_t rate_index(int flow) const override {
    return 1 + static_cast<std::size_t>(flow);
  }
  std::size_t gradient_index(int flow) const {
    return 1 + nflows() + static_cast<std::size_t>(flow);
  }
  std::size_t pi_state_index(int flow) const {
    return 1 + 2 * nflows() + static_cast<std::size_t>(flow);
  }

  std::vector<double> initial_state() const override;
  double suggested_dt() const override;
  double mtu_bytes() const override { return params_.mtu_bytes; }
  double capacity_pps() const override { return coef_.capacity; }

  std::size_t dim() const override {
    return 1 + 3 * static_cast<std::size_t>(params_.num_flows);
  }
  void rhs(double t, std::span<const double> x, const History& past,
           std::span<double> dxdt) const override;
  void clamp(std::span<double> x) const override;
  double max_delay() const override;
  /// Rates are read back at most tau' (the PI error term); only the
  /// gradient's older queue sample reaches tau' + tau*, so the queue alone
  /// needs deep retention.
  double max_row_delay() const override;
  std::pair<std::size_t, std::size_t> deep_vars() const override {
    return {queue_index(), 1};
  }

 private:
  std::size_t nflows() const {
    return static_cast<std::size_t>(params_.num_flows);
  }

  TimelyFluidParams params_;
  const TimelyFluidBase::Coefficients coef_;
  TimelyPiParams pi_;
  // Scratch for the batched per-flow delayed queue lookups (single-threaded
  // per solver, like the base model's).
  mutable std::vector<double> tau_star_buf_;
  mutable std::vector<double> lookup_times_;
  mutable std::vector<double> lookup_vals_;
};

}  // namespace ecnd::fluid
