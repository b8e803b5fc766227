#include "fluid/dcqcn_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "control/dcqcn_analysis.hpp"
#include "fluid/fluid_model.hpp"

namespace ecnd::fluid {
namespace {

TEST(DcqcnMarking, Equation3Profile) {
  DcqcnFluidParams p;  // Kmin=40KB, Kmax=200KB, pmax=0.01, MTU=1000
  DcqcnFluidModel m(p);
  EXPECT_DOUBLE_EQ(m.marking_probability(0.0), 0.0);
  EXPECT_DOUBLE_EQ(m.marking_probability(40.0), 0.0);   // at Kmin
  EXPECT_DOUBLE_EQ(m.marking_probability(120.0), 0.005);  // midband
  EXPECT_DOUBLE_EQ(m.marking_probability(200.0), 0.01);  // at Kmax
  EXPECT_DOUBLE_EQ(m.marking_probability(201.0), 1.0);   // saturation jump
}

TEST(DcqcnMarking, LinearExtensionContinuesSlope) {
  DcqcnFluidParams p;
  p.red_linear_extension = true;
  DcqcnFluidModel m(p);
  EXPECT_NEAR(m.marking_probability(360.0), 0.02, 1e-12);
  EXPECT_DOUBLE_EQ(m.marking_probability(1e9), 1.0);  // still capped at 1
}

TEST(DcqcnMarking, MonotoneNondecreasing) {
  for (bool ext : {false, true}) {
    DcqcnFluidParams p;
    p.red_linear_extension = ext;
    DcqcnFluidModel m(p);
    double prev = -1.0;
    for (double q = 0.0; q < 500.0; q += 1.0) {
      const double pq = m.marking_probability(q);
      EXPECT_GE(pq, prev);
      prev = pq;
    }
  }
}

TEST(DcqcnFluid, InitialStateIsLineRate) {
  DcqcnFluidParams p;
  p.num_flows = 3;
  DcqcnFluidModel m(p);
  const auto x0 = m.initial_state();
  EXPECT_EQ(x0.size(), 1 + 3u * 3u);
  EXPECT_DOUBLE_EQ(x0[m.queue_index()], 0.0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(x0[m.rate_index(i)], p.capacity_pps());
    EXPECT_DOUBLE_EQ(x0[m.alpha_index(i)], 1.0);
  }
}

TEST(DcqcnFluid, ConvergesToAnalyticFixedPoint) {
  DcqcnFluidParams p;
  p.num_flows = 2;
  p.feedback_delay = 4e-6;
  const auto fp = control::solve_dcqcn_fixed_point(p);
  DcqcnFluidModel m(p);
  const FluidRun run = simulate(m, 0.05, 1e-4);
  EXPECT_NEAR(run.queue_bytes.mean_over(0.03, 0.05), fp.q_star_bytes(p),
              0.1 * fp.q_star_bytes(p));
  EXPECT_NEAR(run.flow_rate_gbps[0].mean_over(0.03, 0.05), 5.0, 0.15);
  EXPECT_NEAR(run.flow_rate_gbps[1].mean_over(0.03, 0.05), 5.0, 0.15);
}

TEST(DcqcnFluid, FlowsWithUnequalStartsConverge) {
  // Theorem 2's conclusion, seen in the fluid model: rates equalize.
  DcqcnFluidParams p;
  p.num_flows = 2;
  p.feedback_delay = 4e-6;
  DcqcnFluidModel m(p);
  auto x0 = m.initial_state();
  x0[m.rate_index(0)] = 0.9 * p.capacity_pps();
  x0[m.rate_index(1)] = 0.1 * p.capacity_pps();
  x0[m.alpha_index(0)] = 0.5;
  x0[m.alpha_index(1)] = 0.9;
  const FluidRun run = simulate(m, 0.1, 1e-4, x0);
  const double r0 = run.flow_rate_gbps[0].mean_over(0.08, 0.1);
  const double r1 = run.flow_rate_gbps[1].mean_over(0.08, 0.1);
  EXPECT_NEAR(r0, r1, 0.3);
  EXPECT_NEAR(r0 + r1, 10.0, 0.3);
}

TEST(DcqcnFluid, QueueLawConservation) {
  // While q > 0, the recorded queue slope must equal sum(rates) - C.
  DcqcnFluidParams p;
  p.num_flows = 2;
  DcqcnFluidModel m(p);
  const FluidRun run = simulate(m, 0.002, 1e-5);
  const auto& q = run.queue_bytes;
  for (std::size_t i = 1; i + 1 < q.size(); ++i) {
    if (q[i].value < 2000.0) continue;  // skip the clamp region
    const double dq_dt = (q[i + 1].value - q[i - 1].value) /
                         (q[i + 1].t - q[i - 1].t) * 8.0;  // bits/s
    const double rates =
        (run.flow_rate_gbps[0].value_at(q[i].t) +
         run.flow_rate_gbps[1].value_at(q[i].t)) * 1e9 - p.link_rate;
    EXPECT_NEAR(dq_dt, rates, 0.15e9);
  }
}

TEST(DcqcnFluid, PaperInstabilityAt85usTenFlows) {
  // Figure 4/5: with the physical (saturating) RED profile, 10 flows at
  // 85us feedback delay limit-cycle; 2 flows stay pinned.
  DcqcnFluidParams p;
  p.feedback_delay = 85e-6;
  p.num_flows = 10;
  DcqcnFluidModel m10(p);
  const FluidRun run10 = simulate(m10, 0.1, 1e-4);
  EXPECT_GT(run10.queue_bytes.stddev_over(0.05, 0.1), 20e3);

  p.num_flows = 2;
  DcqcnFluidModel m2(p);
  const FluidRun run2 = simulate(m2, 0.1, 1e-4);
  EXPECT_LT(run2.queue_bytes.stddev_over(0.05, 0.1), 5e3);
}

TEST(DcqcnFluid, SmallDelayStableForAllFlowCounts) {
  // Figure 4(a): at tau* = 4us the model settles for any N. Large N has no
  // interior fixed point on the saturating profile, so (as the paper's own
  // analysis does) this uses the extended marking slope.
  for (int n : {2, 10, 64}) {
    DcqcnFluidParams p;
    p.num_flows = n;
    p.feedback_delay = 4e-6;
    p.red_linear_extension = true;
    DcqcnFluidModel m(p);
    const FluidRun run = simulate(m, 0.15, 1e-4);
    EXPECT_LT(run.queue_bytes.stddev_over(0.1, 0.15), 5e3)
        << "unexpected oscillation at N=" << n;
  }
}

TEST(DcqcnFluid, ExtensionProfileStabilizesLargeN) {
  DcqcnFluidParams p;
  p.num_flows = 10;
  p.feedback_delay = 85e-6;
  p.red_linear_extension = true;
  DcqcnFluidModel m(p);
  const FluidRun run = simulate(m, 0.3, 1e-4);
  EXPECT_LT(run.queue_bytes.stddev_over(0.25, 0.3), 5e3);
  const auto fp = control::solve_dcqcn_fixed_point(p);
  EXPECT_NEAR(run.queue_bytes.mean_over(0.25, 0.3), fp.q_star_bytes(p),
              0.05 * fp.q_star_bytes(p));
}

TEST(DcqcnFluid, JitterDoesNotDestabilize) {
  // Figure 20 (DCQCN side): up to 100us of feedback jitter leaves the
  // fixed point intact.
  DcqcnFluidParams p;
  p.num_flows = 2;
  p.feedback_delay = 4e-6;
  p.feedback_jitter = JitterProcess(100e-6, 20e-6, 99);
  DcqcnFluidModel m(p);
  const FluidRun run = simulate(m, 0.15, 1e-4);
  EXPECT_LT(run.queue_bytes.stddev_over(0.1, 0.15), 8e3);
  EXPECT_NEAR(run.flow_rate_gbps[0].mean_over(0.1, 0.15), 5.0, 0.3);
}

struct FlowCountCase {
  int flows;
};

class DcqcnFixedPointSweep : public ::testing::TestWithParam<int> {};

TEST_P(DcqcnFixedPointSweep, FixedPointZeroesTheDynamics) {
  // Plugging (q*, alpha*, Rt*, Rc*) into the per-flow RHS must give ~0.
  DcqcnFluidParams p;
  p.num_flows = GetParam();
  p.red_linear_extension = true;
  const auto fp = control::solve_dcqcn_fixed_point(p);
  DcqcnFluidModel m(p);
  const auto d = m.flow_rhs(fp.alpha_star, fp.target_rate_pps, fp.rate_pps,
                            fp.p_star, fp.rate_pps);
  EXPECT_NEAR(d.dalpha, 0.0, 1e-6 * fp.alpha_star + 1e-9);
  EXPECT_NEAR(d.dtarget / fp.rate_pps, 0.0, 1e-5);
  EXPECT_NEAR(d.drate / fp.rate_pps, 0.0, 1e-5);
}

TEST_P(DcqcnFixedPointSweep, ResidualBracketsAndMonotone) {
  DcqcnFluidParams p;
  p.num_flows = GetParam();
  EXPECT_LT(control::dcqcn_fixed_point_residual(p, 1e-10), 0.0);
  EXPECT_GT(control::dcqcn_fixed_point_residual(p, 0.999), 0.0);
  // Monotone increasing residual => unique root (Theorem 1).
  double prev = control::dcqcn_fixed_point_residual(p, 1e-6);
  for (double x = -5.0; x <= -0.31; x += 0.25) {
    const double cur = control::dcqcn_fixed_point_residual(p, std::pow(10.0, x));
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST_P(DcqcnFixedPointSweep, Equation14ApproximatesPStar) {
  DcqcnFluidParams p;
  p.num_flows = GetParam();
  const auto fp = control::solve_dcqcn_fixed_point(p);
  const double approx = control::dcqcn_p_star_approx(p);
  // Taylor-around-zero approximation: order-of-magnitude agreement, tighter
  // for small p*.
  EXPECT_GT(approx, 0.3 * fp.p_star);
  EXPECT_LT(approx, 3.0 * fp.p_star);
}

INSTANTIATE_TEST_SUITE_P(FlowCounts, DcqcnFixedPointSweep,
                         ::testing::Values(2, 4, 8, 10, 16, 32, 64));

TEST(DcqcnFluid, RhsMemoMatchesPerFlowEvaluation) {
  // rhs() keys a one-entry memo of the shared transcendental block on the
  // exact bits of each flow's delayed rate. With flows 1 and 2 bitwise equal
  // and flows 0 and 3 distinct (hit and miss paths both exercised), every
  // derivative must equal an independent flow_rhs() evaluation bit for bit.
  DcqcnFluidParams p;
  p.num_flows = 4;
  DcqcnFluidModel m(p);
  History h(m.dim());
  std::vector<double> row(m.dim(), 0.0);
  auto fill = [&](double q, double r0, double r1, double r2, double r3) {
    row[m.queue_index()] = q;
    const double rates[4] = {r0, r1, r2, r3};
    for (int i = 0; i < 4; ++i) {
      row[m.alpha_index(i)] = 0.2 + 0.1 * i;
      row[m.target_rate_index(i)] = 0.9 * p.capacity_pps();
      row[m.rate_index(i)] = rates[i];
    }
  };
  // Kmin = 40 pkts: keep q in the marking band so p_delayed is interior.
  fill(80.0, 3e5, 5e5, 5e5, 1e5);
  h.append(0.0, row);
  fill(120.0, 4e5, 5e5, 5e5, 2e5);
  h.append(1e-5, row);

  const double t = 1e-5;  // t - delay = 6e-6, interior
  std::vector<double> x(row), dxdt(m.dim(), 0.0);
  m.rhs(t, x, h, dxdt);

  const double t_delayed = t - p.feedback_delay;
  const double p_delayed =
      m.marking_probability(h.value(m.queue_index(), t_delayed));
  for (int i = 0; i < 4; ++i) {
    const double rcd = h.value(m.rate_index(i), t_delayed);
    const auto d = m.flow_rhs(x[m.alpha_index(i)], x[m.target_rate_index(i)],
                              x[m.rate_index(i)], p_delayed, rcd);
    EXPECT_EQ(dxdt[m.alpha_index(i)], d.dalpha) << "flow " << i;
    EXPECT_EQ(dxdt[m.target_rate_index(i)], d.dtarget) << "flow " << i;
    EXPECT_EQ(dxdt[m.rate_index(i)], d.drate) << "flow " << i;
  }
}

TEST(DcqcnFluid, GoldenTrajectoryPin) {
  // 17-digit pins recorded from the pre-SoA (interleaved-layout) engine: the
  // struct-of-arrays restructuring, the shared transcendental memo, and the
  // ranged history lookups must all be bit-neutral. Any EXPECT_EQ failure
  // here means a floating-point expression changed shape, not just layout.
  DcqcnFluidParams p;
  p.num_flows = 3;
  DcqcnFluidModel m(p);
  auto x0 = m.initial_state();
  x0[m.rate_index(0)] = 0.7 * p.capacity_pps();
  x0[m.rate_index(1)] = 0.2 * p.capacity_pps();
  x0[m.rate_index(2)] = 0.1 * p.capacity_pps();
  x0[m.alpha_index(1)] = 0.5;
  x0[m.target_rate_index(2)] = 0.6 * p.capacity_pps();
  DdeSolver solver(m, std::move(x0), 0.0, m.suggested_dt());
  solver.run_until(2e-3, nullptr, 0.0);
  const auto x = solver.state();
  EXPECT_EQ(solver.time(), 0.002);
  EXPECT_EQ(x[m.queue_index()], 0.0);
  EXPECT_EQ(x[m.rate_index(0)], 332164.58844632964);
  EXPECT_EQ(x[m.rate_index(1)], 529594.67821680859);
  EXPECT_EQ(x[m.rate_index(2)], 254675.56349286024);
}

TEST(DcqcnFluid, GoldenTrajectoryPinSixteenFlowsSpreadRates) {
  // 17-digit end-state pin where the RateShared memo keeps missing: 16 flows
  // with distinct rates, alphas and target rates (demand 1.5 C), on the
  // linear-extension marking profile the fixed-point analysis uses. The
  // queue must climb past Kmax, where only the extension keeps p < 1.
  DcqcnFluidParams p;
  p.num_flows = 16;
  p.red_linear_extension = true;
  DcqcnFluidModel m(p);
  auto x0 = m.initial_state();
  for (int i = 0; i < p.num_flows; ++i) {
    const double spread = static_cast<double>(i) / (p.num_flows - 1);
    x0[m.rate_index(i)] = p.capacity_pps() / p.num_flows * (0.5 + 2.0 * spread);
    x0[m.target_rate_index(i)] = p.capacity_pps() * (0.3 + 0.7 * spread);
    x0[m.alpha_index(i)] = 0.1 + 0.8 * spread;
  }
  double q_max = 0.0;
  DdeSolver solver(m, std::move(x0), 0.0, m.suggested_dt());
  solver.run_until(
      5e-3,
      [&](double, std::span<const double> x) {
        q_max = std::max(q_max, x[m.queue_index()]);
      },
      0.0);
  EXPECT_GT(q_max, p.kmax_pkts());
  const auto x = solver.state();
  const double rates[16] = {
      79900.752406042826, 76540.065169879235,
      74210.809738825483, 72453.595310571895,
      71037.835383262413, 69840.953851164697,
      68793.942738852289, 67855.730769478949,
      67000.542702490071, 66211.375492242238,
      65476.482856386232, 64787.402479722994,
      64137.805855726612, 63522.803173321539,
      62938.508680047904, 62381.879696931981};
  EXPECT_EQ(x[m.queue_index()], 734.07300588279008);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(x[m.rate_index(i)], rates[i]) << "flow " << i;
  }
  EXPECT_EQ(x[m.alpha_index(0)], 0.1886377548210687);
  EXPECT_EQ(x[m.alpha_index(15)], 0.70451364110138348);
  EXPECT_EQ(x[m.target_rate_index(0)], 84710.52646208342);
  EXPECT_EQ(x[m.target_rate_index(15)], 71097.758330939338);
}

}  // namespace
}  // namespace ecnd::fluid
