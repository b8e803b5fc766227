// Large-N scaling of the fluid engine: input validation, the rate-floor
// feasibility check, aggregate-observables sampling, and 10k-flow smoke
// runs pinned to the paper's fixed points (Equation 14 / Theorem 5).

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "control/dcqcn_analysis.hpp"
#include "core/diagnostic.hpp"
#include "fluid/dcqcn_model.hpp"
#include "fluid/fluid_model.hpp"
#include "fluid/pi_models.hpp"
#include "fluid/timely_model.hpp"

namespace ecnd::fluid {
namespace {

TEST(FluidSimulate, RejectsWrongLengthOverride) {
  DcqcnFluidParams p;
  p.num_flows = 2;
  DcqcnFluidModel m(p);
  ASSERT_EQ(m.dim(), 7u);
  try {
    simulate(m, 1e-4, 1e-5, std::vector<double>(6, 0.0));
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& e) {
    EXPECT_EQ(e.diagnostic().component, "fluid::simulate");
    EXPECT_EQ(e.diagnostic().variable, "initial_override");
    EXPECT_DOUBLE_EQ(e.diagnostic().value, 6.0);
    EXPECT_NE(e.diagnostic().detail.find("state dimension is 7"),
              std::string::npos);
  }
}

TEST(FluidSimulate, AggregatesRejectWrongLengthOverride) {
  DcqcnFluidParams p;
  p.num_flows = 2;
  DcqcnFluidModel m(p);
  EXPECT_THROW(
      simulate_aggregates(m, 1e-4, 1e-5, std::vector<double>(8, 0.0)),
      InvariantViolation);
}

TEST(FluidSimulate, AcceptsMatchingOrEmptyOverride) {
  DcqcnFluidParams p;
  p.num_flows = 2;
  DcqcnFluidModel m(p);
  EXPECT_NO_THROW(simulate(m, 1e-4, 1e-5));
  EXPECT_NO_THROW(simulate(m, 1e-4, 1e-5, m.initial_state()));
  EXPECT_NO_THROW(simulate_aggregates(m, 1e-4, 1e-5, m.initial_state()));
}

// At 10G / 1000B the capacity is 1.25e6 pps; DCQCN's 1 Mb/s floor is 125 pps
// so exactly 10000 flows fit, and TIMELY's 10 Mb/s floor (1250 pps) admits
// exactly 1000. N * floor == capacity is the feasible boundary (demand can
// just drain), one more flow pins demand above capacity forever.
TEST(FluidFeasibility, DcqcnRejectsFlowsBeyondRateFloorCapacity) {
  DcqcnFluidParams p;
  p.num_flows = 10001;
  try {
    DcqcnFluidModel m(p);
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& e) {
    EXPECT_EQ(e.diagnostic().component, "DcqcnFluidModel");
    EXPECT_EQ(e.diagnostic().variable, "num_flows");
    EXPECT_DOUBLE_EQ(e.diagnostic().value, 10001.0);
    EXPECT_NE(e.diagnostic().detail.find("max feasible N = 10000"),
              std::string::npos);
  }
  p.num_flows = 10000;
  EXPECT_NO_THROW(DcqcnFluidModel{p});
}

TEST(FluidFeasibility, TimelyRejectsFlowsBeyondRateFloorCapacity) {
  TimelyFluidParams p;
  p.num_flows = 1001;
  try {
    TimelyFluidModel m(p);
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& e) {
    EXPECT_EQ(e.diagnostic().component, "TimelyFluidBase");
    EXPECT_NE(e.diagnostic().detail.find("max feasible N = 1000"),
              std::string::npos);
  }
  p.num_flows = 1000;
  EXPECT_NO_THROW(TimelyFluidModel{p});
  p.num_flows = 1001;
  EXPECT_THROW(PatchedTimelyFluidModel{p}, InvariantViolation);
}

// Each aggregate sample must be an exact (bitwise) flow-order reduction of
// the per-flow series simulate() records — no reordering, no fused reductions.
TEST(FluidAggregates, MatchPerFlowReductionBitwise) {
  DcqcnFluidParams p;
  p.num_flows = 3;
  DcqcnFluidModel m(p);
  auto x0 = m.initial_state();
  x0[m.rate_index(0)] = 0.7 * p.capacity_pps();
  x0[m.rate_index(1)] = 0.2 * p.capacity_pps();
  x0[m.rate_index(2)] = 0.1 * p.capacity_pps();

  const FluidRun per_flow = simulate(m, 2e-3, 1e-4, x0);
  const FluidAggregateRun agg = simulate_aggregates(m, 2e-3, 1e-4, x0);

  ASSERT_EQ(agg.queue_bytes.size(), per_flow.queue_bytes.size());
  for (std::size_t k = 0; k < agg.queue_bytes.size(); ++k) {
    EXPECT_EQ(agg.queue_bytes[k].t, per_flow.queue_bytes[k].t);
    EXPECT_EQ(agg.queue_bytes[k].value, per_flow.queue_bytes[k].value);
    double sum = 0.0;
    double sum_sq = 0.0;
    double lo = 0.0;
    double hi = 0.0;
    for (int i = 0; i < 3; ++i) {
      const double r = per_flow.flow_rate_gbps[static_cast<std::size_t>(i)][k]
                           .value;
      sum += r;
      sum_sq += r * r;
      lo = i == 0 ? r : std::min(lo, r);
      hi = i == 0 ? r : std::max(hi, r);
    }
    EXPECT_EQ(agg.sum_rate_gbps[k].value, sum);
    EXPECT_EQ(agg.min_rate_gbps[k].value, lo);
    EXPECT_EQ(agg.max_rate_gbps[k].value, hi);
    EXPECT_EQ(agg.jain_fairness[k].value, sum * sum / (3.0 * sum_sq));
  }
}

TEST(FluidAggregates, SymmetricRunIsPerfectlyFair) {
  DcqcnFluidParams p;
  p.num_flows = 4;
  DcqcnFluidModel m(p);
  const FluidAggregateRun run = simulate_aggregates(m, 2e-3, 1e-4);
  for (std::size_t k = 0; k < run.jain_fairness.size(); ++k) {
    EXPECT_DOUBLE_EQ(run.jain_fairness[k].value, 1.0);
    EXPECT_EQ(run.min_rate_gbps[k].value, run.max_rate_gbps[k].value);
  }
}

// 10k-flow DCQCN smoke at 100G (C/N = 1250 pps, exactly the rate floor):
// seeded at the Theorem-1 fixed point the trajectory must hold it — the
// stationarity check exercises the Equation-11 algebra (whose Equation-14
// closed form approximates p*) at a scale the interleaved layout could not
// integrate, and the run itself is the 10k capacity proof.
TEST(FluidScale10k, DcqcnHoldsFixedPointAtTenThousandFlows) {
  DcqcnFluidParams p;
  p.link_rate = gbps(100.0);
  p.num_flows = 10000;
  p.red_linear_extension = true;  // Equation 9/14 only exist on the extension
  const auto fp = control::solve_dcqcn_fixed_point(p);
  ASSERT_TRUE(fp.interior);
  ASSERT_GE(fp.rate_pps, DcqcnFluidModel::kMinRatePps);

  DcqcnFluidModel m(p);
  auto x0 = m.initial_state();
  x0[m.queue_index()] = fp.q_star_pkts;
  for (int i = 0; i < p.num_flows; ++i) {
    x0[m.alpha_index(i)] = fp.alpha_star;
    x0[m.target_rate_index(i)] = fp.target_rate_pps;
    x0[m.rate_index(i)] = fp.rate_pps;
  }
  const FluidAggregateRun run =
      simulate_aggregates(m, 3e-3, 1e-4, std::move(x0), 2e-6);

  ASSERT_FALSE(run.queue_bytes.empty());
  const double q_star = fp.q_star_bytes(p);
  EXPECT_NEAR(run.queue_bytes.back().value, q_star, 0.02 * q_star);
  const double r_star_gbps = fp.rate_pps * 8.0 * p.mtu_bytes / 1e9;
  EXPECT_NEAR(run.min_rate_gbps.back().value, r_star_gbps, 0.05 * r_star_gbps);
  EXPECT_NEAR(run.max_rate_gbps.back().value, r_star_gbps, 0.05 * r_star_gbps);
  EXPECT_NEAR(run.jain_fairness.back().value, 1.0, 1e-9);
}

// 10k-flow patched TIMELY at 400G with delta = 1 Mb/s: q* of Theorem 5 /
// Equation 31 sits inside the gradient band (q' = 2500 < q* = 10312.5 <
// qhigh = 25000) and R* = C/N = 5000 pps clears the rate floor. Seeded at
// (q*, C/N, g = 0) the w(0) = 1/2 blend of Equation 29 cancels exactly, so
// the trajectory must stay put.
TEST(FluidScale10k, PatchedTimelyHoldsTheorem5QueueAtTenThousandFlows) {
  TimelyFluidParams p = patched_timely_defaults();
  p.link_rate = gbps(400.0);
  p.delta = mbps(1.0);
  p.num_flows = 10000;
  PatchedTimelyFluidModel m(p);

  const double q_star_pkts = m.fixed_point_queue_pkts();
  ASSERT_GT(q_star_pkts, p.qlow_pkts());
  ASSERT_LT(q_star_pkts, p.qhigh_pkts());
  ASSERT_GE(p.capacity_pps() / p.num_flows, TimelyFluidBase::kMinRatePps);

  auto x0 = m.initial_state();  // rates C/N, gradients 0
  x0[m.queue_index()] = q_star_pkts;
  const FluidAggregateRun run =
      simulate_aggregates(m, 2e-3, 1e-4, std::move(x0), 1e-6);

  ASSERT_FALSE(run.queue_bytes.empty());
  const double q_star = q_star_pkts * p.mtu_bytes;
  EXPECT_NEAR(run.queue_bytes.back().value, q_star, 0.02 * q_star);
  const double r_star_gbps =
      p.capacity_pps() / p.num_flows * 8.0 * p.mtu_bytes / 1e9;
  EXPECT_NEAR(run.min_rate_gbps.back().value, r_star_gbps, 0.05 * r_star_gbps);
  EXPECT_NEAR(run.max_rate_gbps.back().value, r_star_gbps, 0.05 * r_star_gbps);
}


// 17-digit pins of the 10k-flow hot path: the benchmark's large cells for
// 20 RK4 steps through simulate_aggregates, so the symmetric per-flow loops
// at scale must stay bit-identical. Seeded exactly at the fixed point the
// rates would not move by one ulp in 20 steps (patched TIMELY's Equation-29
// blend cancels exactly), so the queue starts 10% above q*.
TEST(FluidScale10k, DcqcnGoldenAggregatesPinTwentySteps) {
  DcqcnFluidParams p;
  p.link_rate = gbps(100.0);
  p.num_flows = 10000;
  p.red_linear_extension = true;
  const auto fp = control::solve_dcqcn_fixed_point(p);
  DcqcnFluidModel m(p);
  auto x0 = m.initial_state();
  x0[m.queue_index()] = 1.1 * fp.q_star_pkts;
  for (int i = 0; i < p.num_flows; ++i) {
    x0[m.alpha_index(i)] = fp.alpha_star;
    x0[m.target_rate_index(i)] = fp.target_rate_pps;
    x0[m.rate_index(i)] = fp.rate_pps;
  }
  const double dt = 2e-6;
  const FluidAggregateRun run =
      simulate_aggregates(m, 20 * dt, 10 * dt, std::move(x0), dt);
  ASSERT_EQ(run.queue_bytes.size(), 3u);
  EXPECT_EQ(run.queue_bytes.back().value, 17474324.815774567);
  EXPECT_EQ(run.sum_rate_gbps.back().value, 89.300157926143399);
  EXPECT_EQ(run.min_rate_gbps.back().value, 0.0089300157926130181);
  EXPECT_EQ(run.max_rate_gbps.back().value, 0.0089300157926130181);
}

TEST(FluidScale10k, PatchedTimelyGoldenAggregatesPinTwentySteps) {
  TimelyFluidParams p = patched_timely_defaults();
  p.link_rate = gbps(400.0);
  p.delta = mbps(1.0);
  p.num_flows = 10000;
  PatchedTimelyFluidModel m(p);
  auto x0 = m.initial_state();
  x0[m.queue_index()] = 1.1 * m.fixed_point_queue_pkts();
  const double dt = 1e-6;
  const FluidAggregateRun run =
      simulate_aggregates(m, 20 * dt, 10 * dt, std::move(x0), dt);
  ASSERT_EQ(run.queue_bytes.size(), 3u);
  EXPECT_EQ(run.queue_bytes.back().value, 11343744.843919707);
  EXPECT_EQ(run.sum_rate_gbps.back().value, 399.99587520359512);
  EXPECT_EQ(run.min_rate_gbps.back().value, 0.039999587520366385);
  EXPECT_EQ(run.max_rate_gbps.back().value, 0.039999587520366385);
}


// Model constructor preconditions hold in release builds too: each one is an
// InvariantViolation naming the model and the offending parameter, where an
// assert() used to compile out under NDEBUG.
void expect_precondition(const std::function<void()>& construct,
                         const std::string& component,
                         const std::string& variable) {
  try {
    construct();
    ADD_FAILURE() << "expected InvariantViolation on " << variable;
  } catch (const InvariantViolation& e) {
    EXPECT_EQ(e.diagnostic().component, component);
    EXPECT_EQ(e.diagnostic().variable, variable);
  }
}

TEST(FluidPreconditions, TimelyRejectsNonPositiveTLow) {
  for (double t_low : {0.0, -50e-6}) {
    TimelyFluidParams p;
    p.t_low = t_low;
    expect_precondition([&] { TimelyFluidModel{p}; }, "TimelyFluidBase",
                        "t_low");
    expect_precondition([&] { PatchedTimelyFluidModel{p}; },
                        "TimelyFluidBase", "t_low");
  }
}

TEST(FluidPreconditions, TimelyRejectsTHighNotAboveTLow) {
  for (double t_high : {50e-6, 20e-6}) {  // equal to, then below, T_low
    TimelyFluidParams p;
    p.t_high = t_high;
    expect_precondition([&] { TimelyFluidModel{p}; }, "TimelyFluidBase",
                        "t_high");
  }
}

TEST(FluidPreconditions, TimelyRejectsNonPositiveMinRtt) {
  for (double d_min_rtt : {0.0, -20e-6}) {
    TimelyFluidParams p;
    p.d_min_rtt = d_min_rtt;
    expect_precondition([&] { TimelyFluidModel{p}; }, "TimelyFluidBase",
                        "d_min_rtt");
  }
}

TEST(FluidPreconditions, DcqcnRejectsKmaxNotAboveKmin) {
  for (Bytes kmax : {kilobytes(40.0), kilobytes(20.0)}) {  // = Kmin, < Kmin
    DcqcnFluidParams p;
    p.kmax = kmax;
    expect_precondition([&] { DcqcnFluidModel{p}; }, "DcqcnFluidModel",
                        "kmax");
    expect_precondition([&] { DcqcnPiFluidModel(p, PiControllerParams{}); },
                        "DcqcnFluidModel", "kmax");
  }
}

TEST(FluidPreconditions, DcqcnRejectsPmaxOutsideUnitInterval) {
  for (double pmax : {0.0, -0.01, 1.5, std::nan("")}) {
    DcqcnFluidParams p;
    p.pmax = pmax;
    expect_precondition([&] { DcqcnFluidModel{p}; }, "DcqcnFluidModel",
                        "pmax");
  }
  DcqcnFluidParams p;
  p.pmax = 1.0;
  EXPECT_NO_THROW(DcqcnFluidModel{p});
}

TEST(FluidPreconditions, TimelyPiRejectsQrefOutsideGradientBand) {
  const TimelyFluidParams p = patched_timely_defaults();  // band (62.5, 625)
  for (double qref : {p.qlow_pkts(), 10.0, p.qhigh_pkts(), 1000.0}) {
    TimelyPiParams pi;
    pi.qref_pkts = qref;
    expect_precondition([&] { PatchedTimelyPiFluidModel(p, pi); },
                        "PatchedTimelyPiFluidModel", "qref_pkts");
  }
  TimelyFluidParams bad = p;
  bad.d_min_rtt = 0.0;
  expect_precondition([&] { PatchedTimelyPiFluidModel(bad, TimelyPiParams{}); },
                      "PatchedTimelyPiFluidModel", "d_min_rtt");
  EXPECT_NO_THROW(PatchedTimelyPiFluidModel(p, TimelyPiParams{}));
}

}  // namespace
}  // namespace ecnd::fluid
