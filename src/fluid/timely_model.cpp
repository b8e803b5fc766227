#include "fluid/timely_model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "core/diagnostic.hpp"

namespace ecnd::fluid {

void require_valid_timely_params(const char* component,
                                 const TimelyFluidParams& params) {
  assert(params.num_flows >= 1);
  require_precondition(params.t_low > 0.0, component, "t_low", params.t_low,
                       "T_low must be positive: the reference queue "
                       "q' = C*T_low divides the Equation-29 error");
  require_precondition(params.t_high > params.t_low, component, "t_high",
                       params.t_high, "T_high must exceed T_low");
  require_precondition(params.d_min_rtt > 0.0, component, "d_min_rtt",
                       params.d_min_rtt,
                       "D_minRTT must be positive: it normalizes the gradient");
  require_min_rate_feasible(component, params.num_flows,
                            TimelyFluidBase::kMinRatePps,
                            params.capacity_pps());
}

TimelyFluidBase::Coefficients::Coefficients(const TimelyFluidParams& p)
    : capacity(p.capacity_pps()),
      delta(p.delta_pps()),
      segment(p.segment_pkts()),
      d_min_rtt(p.d_min_rtt),
      qlow(p.qlow_pkts()),
      qhigh(p.qhigh_pkts()),
      qcap(kQueueCapFactor * p.qhigh_pkts()),
      base_delay(p.base_feedback_delay()),
      gradient_scale(p.capacity_pps() * p.d_min_rtt),
      beta(p.beta),
      beta_high(p.beta_high),
      alpha_ewma(p.alpha_ewma) {}

bool TimelyFluidBase::Coefficients::threshold_rate_rhs(
    double q_hat, std::size_t n, const double* rate, const double* tau_star,
    double* drate) const {
  if (q_hat < qlow) {
    for (std::size_t i = 0; i < n; ++i) drate[i] = delta / tau_star[i];
    return true;
  }
  if (q_hat > qhigh) {
    const double excess = 1.0 - qhigh / q_hat;
    for (std::size_t i = 0; i < n; ++i) {
      drate[i] = -beta_high / tau_star[i] * excess * rate[i];
    }
    return true;
  }
  return false;
}

TimelyFluidBase::TimelyFluidBase(TimelyFluidParams params)
    : params_(std::move(params)), coef_(params_) {
  require_valid_timely_params("TimelyFluidBase", params_);
}

std::vector<double> TimelyFluidBase::initial_state() const {
  // TIMELY flows start at C/N (the paper's validation setup, §4.1) with a
  // zero gradient and an empty queue.
  std::vector<double> x(dim(), 0.0);
  const double start = params_.capacity_pps() / params_.num_flows;
  for (int i = 0; i < params_.num_flows; ++i) {
    x[rate_index(i)] = std::max(start, kMinRatePps);
    x[gradient_index(i)] = 0.0;
  }
  return x;
}

double TimelyFluidBase::suggested_dt() const {
  const double min_delay = params_.base_feedback_delay();
  return std::clamp(std::min(min_delay, params_.d_min_rtt) / 8.0, 5e-8, 5e-7);
}

void TimelyFluidBase::clamp(std::span<double> x) const {
  const Coefficients k = coef_;
  const std::size_t n = nflows();
  x[queue_index()] = std::clamp(x[queue_index()], 0.0, k.qcap);
  double* rate = x.data() + rate_index(0);
  double* grad = x.data() + gradient_index(0);
  for (std::size_t i = 0; i < n; ++i) {
    rate[i] = std::clamp(rate[i], kMinRatePps, k.capacity);
    grad[i] = std::clamp(grad[i], -100.0, 100.0);
  }
}

double TimelyFluidBase::max_delay() const {
  const double max_tau_prime =
      coef_.qcap / coef_.capacity + coef_.base_delay;
  const double max_tau_star =
      std::max(coef_.segment / kMinRatePps, coef_.d_min_rtt);
  return max_tau_prime + max_tau_star + params_.feedback_jitter.amplitude();
}

TimelyFluidBase::MeasuredQueue TimelyFluidBase::measured_queue(
    double t, double q_now, const History& past) const {
  MeasuredQueue mq{};
  mq.jitter = params_.feedback_jitter.value(t);
  mq.tau_prime = feedback_delay(q_now) + mq.jitter;
  const double sample = past.value(queue_index(), t - mq.tau_prime);
  // Reverse-path jitter shows up as extra apparent queueing delay.
  mq.q_hat = sample + mq.jitter * coef_.capacity;
  return mq;
}

double TimelyFluidBase::queue_rhs(std::span<const double> x,
                                  std::span<double> dxdt) const {
  const std::size_t n = nflows();
  const double* rate = x.data() + rate_index(0);
  double sum_r = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum_r += rate[i];
  const double q = x[queue_index()];
  double dq = sum_r - coef_.capacity;
  if (q <= 0.0 && dq < 0.0) dq = 0.0;
  dxdt[queue_index()] = dq;
  return q;
}

void TimelyFluidBase::gradient_rhs(double t, std::span<const double> x,
                                   const History& past,
                                   const MeasuredQueue& mq,
                                   std::span<double> dxdt) const {
  // Equation 22. The two queue samples that form the gradient are one rate-
  // update interval apart; both are read through the measured-queue lens so
  // jitter perturbs the *difference* (the paper's "noisy feedback" effect).
  // The recent sample is exactly the q_hat the rate branches use.
  const Coefficients k = coef_;
  const double q_recent = mq.q_hat;
  const std::size_t n = nflows();
  const double* rate = x.data() + rate_index(0);
  const double* grad = x.data() + gradient_index(0);
  double* dgrad = dxdt.data() + gradient_index(0);
  tau_star_buf_.resize(n);
  lookup_times_.resize(n);
  lookup_vals_.resize(n);
  double* tau_star = tau_star_buf_.data();
  double* times = lookup_times_.data();
  for (std::size_t i = 0; i < n; ++i) {
    tau_star[i] = k.update_interval(rate[i]);
    times[i] = t - mq.tau_prime - tau_star[i];
  }
  // Batched per-flow lookups: flows with bitwise-equal rates (the symmetric
  // many-flow case) share one history search.
  past.values_at(queue_index(), lookup_times_, lookup_vals_);
  const double* q_prev_sample = lookup_vals_.data();
  // A disabled jitter process is 0 at every instant: skip the per-flow call
  // but keep the add, so q_prev is bit-identical either way.
  const JitterProcess& jitter = params_.feedback_jitter;
  const bool jittered = jitter.enabled();
  for (std::size_t i = 0; i < n; ++i) {
    const double jitter_prev = jittered ? jitter.value(t - tau_star[i]) : 0.0;
    const double q_prev = q_prev_sample[i] + jitter_prev * k.capacity;
    const double normalized = (q_recent - q_prev) / k.gradient_scale;
    dgrad[i] = k.alpha_ewma / tau_star[i] * (-grad[i] + normalized);
  }
}

void TimelyFluidModel::rhs(double t, std::span<const double> x,
                           const History& past, std::span<double> dxdt) const {
  const double q = queue_rhs(x, dxdt);
  // One measured-queue evaluation serves the gradient EWMA and every rate
  // branch below (bit-identical to the former per-use recomputation).
  const MeasuredQueue mq = measured_queue(t, q, past);
  gradient_rhs(t, x, past, mq, dxdt);

  const Coefficients k = coef_;
  const std::size_t n = nflows();
  const double* rate = x.data() + rate_index(0);
  const double* grad = x.data() + gradient_index(0);
  const double* tau_star = tau_star_buf_.data();
  double* drate = dxdt.data() + rate_index(0);
  if (k.threshold_rate_rhs(mq.q_hat, n, rate, tau_star, drate)) return;
  const bool strict = params_.strict_gradient_zero;
  for (std::size_t i = 0; i < n; ++i) {
    const double g = grad[i];
    if (strict ? (g < 0.0) : (g <= 0.0)) {
      drate[i] = k.delta / tau_star[i];  // gradient-based increase
    } else {
      drate[i] = -g * k.beta / tau_star[i] * rate[i];  // and decrease
    }
  }
}

TimelyFluidParams patched_timely_defaults() {
  TimelyFluidParams p;
  p.beta = 0.008;
  p.segment = kilobytes(16.0);
  return p;
}

double PatchedTimelyFluidModel::fixed_point_queue_pkts() const {
  // Theorem 5 / Equation 31: q* = N delta q' / (beta C) + q'.
  const TimelyFluidParams& P = params_;
  return P.num_flows * P.delta_pps() * qref_pkts() /
             (P.beta * P.capacity_pps()) +
         qref_pkts();
}

void PatchedTimelyFluidModel::rhs(double t, std::span<const double> x,
                                  const History& past,
                                  std::span<double> dxdt) const {
  const double q = queue_rhs(x, dxdt);
  const MeasuredQueue mq = measured_queue(t, q, past);
  gradient_rhs(t, x, past, mq, dxdt);

  const Coefficients k = coef_;
  const std::size_t n = nflows();
  const double* rate = x.data() + rate_index(0);
  const double* grad = x.data() + gradient_index(0);
  const double* tau_star = tau_star_buf_.data();
  double* drate = dxdt.data() + rate_index(0);
  const double q_hat = mq.q_hat;
  if (k.threshold_rate_rhs(q_hat, n, rate, tau_star, drate)) return;
  // Equation 29 middle branch: smooth blend of additive increase and an
  // absolute-queue-error multiplicative decrease, with q' = qlow.
  const double q_error = q_hat - k.qlow;
  for (std::size_t i = 0; i < n; ++i) {
    const double w = weight(grad[i]);
    drate[i] = (1.0 - w) * k.delta / tau_star[i] -
               w * k.beta / tau_star[i] * rate[i] * q_error / k.qlow;
  }
}

}  // namespace ecnd::fluid
