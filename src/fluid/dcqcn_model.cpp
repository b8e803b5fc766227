#include "fluid/dcqcn_model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "core/diagnostic.hpp"

namespace ecnd::fluid {
namespace {

// Numerically safe helpers for the model's exponential terms. All reduce to
// well-behaved limits as p -> 0 (no marking), which matters because DCQCN's
// fixed-point p* is typically O(1e-3..1e-2) and transients pass through 0.

// Each takes l = log1p(-p) precomputed by the caller: the six exponential
// terms per flow all share the same p, so one rhs() evaluation pays a single
// log1p instead of six per flow.

/// (1 - p)^x given l = log1p(-p).
double pow1m(double l, double x) { return std::exp(x * l); }

/// p / ((1-p)^{-n} - 1); limit 1/n as p -> 0.
double increase_event_factor(double p, double l, double n) {
  assert(n > 0.0);
  if (p <= 1e-12) return 1.0 / n;
  if (p >= 1.0) return 0.0;
  const double denom = std::expm1(-n * l);
  if (denom <= 0.0) return 1.0 / n;
  return p / denom;
}

/// 1 - (1-p)^n: probability of >= 1 mark in n packets.
double mark_within(double p, double l, double n) {
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return 1.0;
  return -std::expm1(n * l);
}

}  // namespace

DcqcnFluidModel::Coefficients::Coefficients(const DcqcnFluidParams& p)
    : capacity(p.capacity_pps()),
      kmin(p.kmin_pkts()),
      kmax(p.kmax_pkts()),
      kspan(p.kmax_pkts() - p.kmin_pkts()),
      pmax(p.pmax),
      byte_counter(p.byte_counter_pkts()),
      fast_recovery_bytes(p.fast_recovery_steps * p.byte_counter_pkts()),
      fast_recovery(p.fast_recovery_steps),
      timer(p.timer_T),
      tau_cnp(p.tau_cnp),
      two_tau_cnp(2.0 * p.tau_cnp),
      tau_alpha(p.tau_alpha),
      alpha_gain(p.g / p.tau_alpha),
      rate_ai(p.rate_ai_pps()) {}

DcqcnFluidModel::DcqcnFluidModel(DcqcnFluidParams params)
    : params_(std::move(params)), coef_(params_) {
  assert(params_.num_flows >= 1);
  require_precondition(params_.kmax > params_.kmin, "DcqcnFluidModel", "kmax",
                       static_cast<double>(params_.kmax),
                       "Kmax must exceed Kmin: Equation 3 divides by "
                       "Kmax - Kmin");
  require_precondition(params_.pmax > 0.0 && params_.pmax <= 1.0,
                       "DcqcnFluidModel", "pmax", params_.pmax,
                       "Pmax is a probability in (0, 1]");
  require_min_rate_feasible("DcqcnFluidModel", params_.num_flows, kMinRatePps,
                            coef_.capacity);
}

double DcqcnFluidModel::marking_probability(double q_pkts) const {
  const Coefficients& k = coef_;
  if (q_pkts <= k.kmin) return 0.0;
  if (!params_.red_linear_extension && q_pkts > k.kmax) return 1.0;
  return std::min(1.0, (q_pkts - k.kmin) / k.kspan * k.pmax);
}

std::vector<double> DcqcnFluidModel::initial_state() const {
  // DCQCN flows start at line rate with alpha = 1 and an empty queue.
  std::vector<double> x(dim(), 0.0);
  const double line = params_.capacity_pps();
  for (int i = 0; i < params_.num_flows; ++i) {
    x[alpha_index(i)] = 1.0;
    x[target_rate_index(i)] = line;
    x[rate_index(i)] = line;
  }
  return x;
}

double DcqcnFluidModel::suggested_dt() const {
  const double dt = std::min(params_.feedback_delay, params_.tau_cnp) / 8.0;
  return std::clamp(dt, 5e-8, 1e-6);
}

DcqcnFluidModel::MarkingShared DcqcnFluidModel::make_marking_shared(
    const Coefficients& k, double p_delayed) {
  MarkingShared m{};
  m.p = std::clamp(p_delayed, 0.0, 1.0);
  m.l = std::log1p(-m.p);
  m.byte_factor = increase_event_factor(m.p, m.l, k.byte_counter);  // ~ 1/B
  m.byte_ai = pow1m(m.l, k.fast_recovery_bytes);  // P(in AI, byte)
  return m;
}

DcqcnFluidModel::FlowDerivatives DcqcnFluidModel::flow_rhs(
    double alpha, double rt, double rc, double p_delayed,
    double rc_delayed) const {
  const MarkingShared m = make_marking_shared(coef_, p_delayed);
  return flow_rhs_from(coef_, alpha, rt, rc, m,
                       make_rate_shared(coef_, m, rc_delayed));
}

DcqcnFluidModel::RateShared DcqcnFluidModel::make_rate_shared(
    const Coefficients& k, const MarkingShared& m, double rc_delayed) {
  const double p = m.p;
  RateShared r{};
  r.rcd = std::max(rc_delayed, kMinRatePps);

  const double TRc = k.timer * r.rcd;

  // Probability of at least one CNP per tau / tau' window (Equations 5-7).
  r.cnp_prob_tau = mark_within(p, m.l, k.tau_cnp * r.rcd);
  r.cnp_prob_tau_alpha = mark_within(p, m.l, k.tau_alpha * r.rcd);

  // Timer-based rate-increase event factors (the byte-counter pair depends
  // only on p and lives in MarkingShared), Equation 6/7.
  r.timer_factor = increase_event_factor(p, m.l, TRc);   // ~ 1/(T Rc)
  const double timer_ai = pow1m(m.l, k.fast_recovery * TRc);  // P(in AI, timer)

  // The Equation-6 additive-increase terms in full — association matches the
  // original dRt/dt sum exactly, so folding them here is bit-neutral.
  r.ai_byte = k.rate_ai * r.rcd * m.byte_ai * m.byte_factor;
  r.ai_timer = k.rate_ai * r.rcd * timer_ai * r.timer_factor;
  return r;
}

// Inline: flows_rhs() runs it once per flow, and a call that returns the
// three derivatives through memory costs as much as the arithmetic.
inline DcqcnFluidModel::FlowDerivatives DcqcnFluidModel::flow_rhs_from(
    const Coefficients& k, double alpha, double rt, double rc,
    const MarkingShared& m, const RateShared& r) {
  FlowDerivatives d{};
  // Equation 5.
  d.dalpha = k.alpha_gain * (r.cnp_prob_tau_alpha - alpha);
  // Equation 6.
  d.dtarget = -(rt - rc) / k.tau_cnp * r.cnp_prob_tau + r.ai_byte + r.ai_timer;
  // Equation 7.
  d.drate = -(rc * alpha) / k.two_tau_cnp * r.cnp_prob_tau +
            (rt - rc) / 2.0 * r.rcd * m.byte_factor +
            (rt - rc) / 2.0 * r.rcd * r.timer_factor;
  return d;
}

void DcqcnFluidModel::flows_rhs(const MarkingShared& m,
                                const double* rc_delayed,
                                std::span<const double> x,
                                std::size_t alpha_begin,
                                std::span<double> dxdt) const {
  const Coefficients k = coef_;
  const std::size_t n = nflows();
  const double* alpha = x.data() + alpha_begin;
  const double* rt = alpha + n;
  const double* rc = rt + n;
  double* dalpha = dxdt.data() + alpha_begin;
  double* dtarget = dalpha + n;
  double* drate = dtarget + n;
  // One-entry memo over the delayed rate: in symmetric runs every flow's
  // delayed rate is bitwise identical, so the expensive transcendental block
  // is computed once per evaluation instead of once per flow. Keyed on exact
  // bits — a miss just recomputes, so results never depend on the memo.
  RateShared rate_shared{};
  double rate_shared_key = 0.0;
  bool have_rate_shared = false;
  for (std::size_t i = 0; i < n; ++i) {
    const double rcd_i = rc_delayed[i];
    if (!have_rate_shared || rcd_i != rate_shared_key) {
      rate_shared = make_rate_shared(k, m, rcd_i);
      rate_shared_key = rcd_i;
      have_rate_shared = true;
    }
    const FlowDerivatives d =
        flow_rhs_from(k, alpha[i], rt[i], rc[i], m, rate_shared);
    dalpha[i] = d.dalpha;
    dtarget[i] = d.dtarget;
    drate[i] = d.drate;
  }
}

void DcqcnFluidModel::rhs(double t, std::span<const double> x, const History& past,
                          std::span<double> dxdt) const {
  const DcqcnFluidParams& P = params_;
  const double delay = P.feedback_delay + P.feedback_jitter.value(t);
  const double t_delayed = t - delay;
  const std::size_t n = nflows();

  // Equation 4: queue evolution, gated so an empty queue cannot go negative.
  const double* rc = x.data() + rate_index(0);
  double sum_rc = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum_rc += rc[i];
  const double q = x[queue_index()];
  double dq = sum_rc - coef_.capacity;
  if (q <= 0.0 && dq < 0.0) dq = 0.0;
  dxdt[queue_index()] = dq;

  // Two history searches serve every delayed read: the queue drives the
  // shared marking terms, and the SoA rate block interpolates in one
  // contiguous pass (the second search reuses the cursor the first warmed).
  const double q_delayed = past.value(queue_index(), t_delayed);
  const std::span<const double> rc_delayed =
      past.values(t_delayed, rate_index(0), n);
  const double p_delayed = marking_probability(q_delayed);
  flows_rhs(make_marking_shared(coef_, p_delayed), rc_delayed.data(), x,
            alpha_index(0), dxdt);
}

void DcqcnFluidModel::clamp(std::span<double> x) const {
  const double line = coef_.capacity;
  const std::size_t n = nflows();
  x[queue_index()] = std::max(0.0, x[queue_index()]);
  double* alpha = x.data() + alpha_index(0);
  double* rt = x.data() + target_rate_index(0);
  double* rc = x.data() + rate_index(0);
  for (std::size_t i = 0; i < n; ++i) {
    alpha[i] = std::clamp(alpha[i], 0.0, 1.0);
    rt[i] = std::clamp(rt[i], kMinRatePps, line);
    rc[i] = std::clamp(rc[i], kMinRatePps, line);
  }
}

}  // namespace ecnd::fluid
