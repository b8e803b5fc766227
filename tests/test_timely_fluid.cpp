#include "fluid/timely_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "control/timely_analysis.hpp"
#include "fluid/fluid_model.hpp"

namespace ecnd::fluid {
namespace {

TEST(TimelyFluid, InitialStateSplitsCapacity) {
  TimelyFluidParams p;
  p.num_flows = 4;
  TimelyFluidModel m(p);
  const auto x0 = m.initial_state();
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(x0[m.rate_index(i)], p.capacity_pps() / 4.0);
    EXPECT_DOUBLE_EQ(x0[m.gradient_index(i)], 0.0);
  }
}

TEST(TimelyFluid, UpdateIntervalEquation23) {
  TimelyFluidParams p;  // Seg=16KB, DminRTT=20us, C=1.25e6 pps
  TimelyFluidModel m(p);
  // At high rate, Seg/R < DminRTT -> clamped to DminRTT.
  EXPECT_DOUBLE_EQ(m.update_interval(1.25e6), 20e-6);
  // At 100 Mb/s (12500 pps), Seg/R = 16/12500 = 1.28 ms.
  EXPECT_NEAR(m.update_interval(12500.0), 1.28e-3, 1e-9);
}

TEST(TimelyFluid, FeedbackDelayEquation24) {
  TimelyFluidParams p;
  TimelyFluidModel m(p);
  // Empty queue: MTU/C + Dprop.
  EXPECT_NEAR(m.feedback_delay(0.0), 0.8e-6 + p.d_prop, 1e-12);
  // 125 packets = 100us of queueing at 10G.
  EXPECT_NEAR(m.feedback_delay(125.0), 100e-6 + 0.8e-6 + p.d_prop, 1e-12);
}

TEST(TimelyFluid, OscillatesInLimitCycles) {
  // §4.2: TIMELY has no fixed point — the queue keeps oscillating.
  TimelyFluidParams p;
  p.num_flows = 2;
  TimelyFluidModel m(p);
  const FluidRun run = simulate(m, 0.2, 1e-4);
  EXPECT_GT(run.queue_bytes.stddev_over(0.1, 0.2), 3e3);
}

TEST(TimelyFluid, UnequalStartsStayUnfair) {
  // Figure 9(c): 7 Gb/s vs 3 Gb/s starts never equalize.
  TimelyFluidParams p;
  p.num_flows = 2;
  TimelyFluidModel m(p);
  auto x0 = m.initial_state();
  x0[m.rate_index(0)] = 0.7 * p.capacity_pps();
  x0[m.rate_index(1)] = 0.3 * p.capacity_pps();
  const FluidRun run = simulate(m, 0.3, 1e-4, x0);
  const double r0 = run.flow_rate_gbps[0].mean_over(0.2, 0.3);
  const double r1 = run.flow_rate_gbps[1].mean_over(0.2, 0.3);
  EXPECT_GT(r0 - r1, 2.0) << "TIMELY should preserve the initial imbalance";
  EXPECT_NEAR(r0 + r1, 10.0, 1.5);  // link still roughly utilized
}

TEST(TimelyFluid, StrictGradientVariantBehavesTheSame) {
  // Equation 28 changes <= to < — indistinguishable in practice (§4.2).
  for (bool strict : {false, true}) {
    TimelyFluidParams p;
    p.num_flows = 2;
    p.strict_gradient_zero = strict;
    TimelyFluidModel m(p);
    auto x0 = m.initial_state();
    x0[m.rate_index(0)] = 0.7 * p.capacity_pps();
    x0[m.rate_index(1)] = 0.3 * p.capacity_pps();
    const FluidRun run = simulate(m, 0.1, 1e-4, x0);
    EXPECT_GT(run.flow_rate_gbps[0].mean_over(0.05, 0.1) -
                  run.flow_rate_gbps[1].mean_over(0.05, 0.1),
              1.5);
  }
}

TEST(TimelyTheorem3, OriginalHasNoFixedPoint) {
  // At any candidate steady point the rate derivative is delta/tau* != 0.
  TimelyFluidParams p;
  p.num_flows = 4;
  const double q = 0.5 * (p.qlow_pkts() + p.qhigh_pkts());
  std::vector<double> rates(4, p.capacity_pps() / 4.0);
  EXPECT_GT(control::timely_rate_derivative_at_candidate(p, q, rates), 0.0);
}

TEST(TimelyTheorem4, StrictVariantAcceptsArbitrarySplits) {
  // Equation 28: ANY rate split with sum = C is a fixed point.
  TimelyFluidParams p;
  p.num_flows = 4;
  p.strict_gradient_zero = true;
  const double q = 0.5 * (p.qlow_pkts() + p.qhigh_pkts());
  const double c = p.capacity_pps();
  for (const auto& rates :
       {std::vector<double>{0.7 * c, 0.1 * c, 0.1 * c, 0.1 * c},
        std::vector<double>{0.25 * c, 0.25 * c, 0.25 * c, 0.25 * c},
        std::vector<double>{0.97 * c, 0.01 * c, 0.01 * c, 0.01 * c}}) {
    EXPECT_DOUBLE_EQ(control::timely_rate_derivative_at_candidate(p, q, rates),
                     0.0);
  }
}

TEST(TimelyTheorem4, OutsideThresholdsNotFixed) {
  TimelyFluidParams p;
  p.strict_gradient_zero = true;
  std::vector<double> rates(2, p.capacity_pps() / 2.0);
  EXPECT_GT(control::timely_rate_derivative_at_candidate(
                p, 0.5 * p.qlow_pkts(), rates),
            0.0);
  EXPECT_GT(control::timely_rate_derivative_at_candidate(
                p, 2.0 * p.qhigh_pkts(), rates),
            0.0);
}

TEST(PatchedTimely, WeightFunctionEquation30) {
  EXPECT_DOUBLE_EQ(PatchedTimelyFluidModel::weight(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(PatchedTimelyFluidModel::weight(-0.25), 0.0);
  EXPECT_DOUBLE_EQ(PatchedTimelyFluidModel::weight(0.0), 0.5);
  EXPECT_DOUBLE_EQ(PatchedTimelyFluidModel::weight(0.25), 1.0);
  EXPECT_DOUBLE_EQ(PatchedTimelyFluidModel::weight(3.0), 1.0);
  // Monotone nondecreasing.
  double prev = -1.0;
  for (double g = -0.5; g <= 0.5; g += 0.01) {
    const double w = PatchedTimelyFluidModel::weight(g);
    EXPECT_GE(w, prev);
    EXPECT_GE(w, 0.0);
    EXPECT_LE(w, 1.0);
    prev = w;
  }
}

class PatchedTimelyFixedPointSweep : public ::testing::TestWithParam<int> {};

TEST_P(PatchedTimelyFixedPointSweep, ConvergesToEquation31Queue) {
  TimelyFluidParams p = patched_timely_defaults();
  p.num_flows = GetParam();
  PatchedTimelyFluidModel m(p);
  const double q_star_bytes = m.fixed_point_queue_pkts() * p.mtu_bytes;
  const FluidRun run = simulate(m, 0.3, 2e-4);
  EXPECT_NEAR(run.queue_bytes.mean_over(0.25, 0.3), q_star_bytes,
              0.1 * q_star_bytes);
  // Fair share at the fixed point (Theorem 5).
  for (int i = 0; i < p.num_flows; ++i) {
    EXPECT_NEAR(run.flow_rate_gbps[static_cast<std::size_t>(i)].mean_over(0.25, 0.3),
                10.0 / p.num_flows, 0.15 * 10.0 / p.num_flows + 0.05);
  }
}

INSTANTIATE_TEST_SUITE_P(FlowCounts, PatchedTimelyFixedPointSweep,
                         ::testing::Values(2, 4, 8));

TEST(PatchedTimely, ConvergesFromUnequalStarts) {
  // Figure 12(a): 7/3 Gb/s starts converge to 5/5.
  TimelyFluidParams p = patched_timely_defaults();
  p.num_flows = 2;
  PatchedTimelyFluidModel m(p);
  auto x0 = m.initial_state();
  x0[m.rate_index(0)] = 0.7 * p.capacity_pps();
  x0[m.rate_index(1)] = 0.3 * p.capacity_pps();
  const FluidRun run = simulate(m, 0.3, 2e-4, x0);
  EXPECT_NEAR(run.flow_rate_gbps[0].mean_over(0.25, 0.3), 5.0, 0.25);
  EXPECT_NEAR(run.flow_rate_gbps[1].mean_over(0.25, 0.3), 5.0, 0.25);
}

TEST(PatchedTimely, Equation31MatchesAnalysisHelper) {
  TimelyFluidParams p = patched_timely_defaults();
  p.num_flows = 6;
  PatchedTimelyFluidModel m(p);
  const auto fp = control::patched_timely_fixed_point(p);
  EXPECT_DOUBLE_EQ(fp.q_star_pkts, m.fixed_point_queue_pkts());
  EXPECT_DOUBLE_EQ(fp.rate_pps, p.capacity_pps() / 6.0);
}

TEST(PatchedTimely, JitterDestabilizes) {
  // Figure 20 (TIMELY side): reverse-path jitter is delay AND noise, so the
  // same jitter that leaves DCQCN untouched disrupts patched TIMELY: rates
  // oscillate and/or the link detunes from its fixed point.
  TimelyFluidParams p = patched_timely_defaults();
  p.num_flows = 2;
  PatchedTimelyFluidModel clean_model(p);
  p.feedback_jitter = JitterProcess(100e-6, 20e-6, 7);
  PatchedTimelyFluidModel jitter_model(p);

  const FluidRun clean = simulate(clean_model, 0.2, 2e-4);
  const FluidRun jittered = simulate(jitter_model, 0.2, 2e-4);

  const double clean_rate_std = clean.flow_rate_gbps[0].stddev_over(0.1, 0.2);
  const double jitter_rate_std = jittered.flow_rate_gbps[0].stddev_over(0.1, 0.2);
  EXPECT_GT(jitter_rate_std, 5.0 * clean_rate_std + 0.01);
}

// 17-digit pins recorded from the pre-SoA (interleaved-layout) engine: the
// layout change, the shared measured-queue lens, the batched values_at()
// gradient lookups, and the queue-only deep retention must all be
// bit-neutral. See the DCQCN twin for the rationale.

TEST(TimelyFluid, GoldenTrajectoryPin) {
  TimelyFluidParams p;
  p.num_flows = 3;
  TimelyFluidModel m(p);
  auto x0 = m.initial_state();
  x0[m.rate_index(0)] = 0.6 * p.capacity_pps();
  x0[m.rate_index(1)] = 0.3 * p.capacity_pps();
  x0[m.rate_index(2)] = 0.1 * p.capacity_pps();
  DdeSolver solver(m, std::move(x0), 0.0, m.suggested_dt());
  solver.run_until(2e-3, nullptr, 0.0);
  const auto x = solver.state();
  EXPECT_EQ(solver.time(), 0.0020002499999999999);
  EXPECT_EQ(x[m.queue_index()], 0.0);
  EXPECT_EQ(x[m.rate_index(0)], 619527.95021995401);
  EXPECT_EQ(x[m.rate_index(1)], 296765.4798687009);
  EXPECT_EQ(x[m.rate_index(2)], 99650.896692885406);
}

TEST(PatchedTimely, GoldenTrajectoryPin) {
  TimelyFluidParams p = patched_timely_defaults();
  p.num_flows = 3;
  PatchedTimelyFluidModel m(p);
  auto x0 = m.initial_state();
  x0[m.rate_index(0)] = 0.6 * p.capacity_pps();
  x0[m.rate_index(1)] = 0.3 * p.capacity_pps();
  x0[m.rate_index(2)] = 0.1 * p.capacity_pps();
  DdeSolver solver(m, std::move(x0), 0.0, m.suggested_dt());
  solver.run_until(2e-3, nullptr, 0.0);
  const auto x = solver.state();
  EXPECT_EQ(solver.time(), 0.0020002499999999999);
  EXPECT_EQ(x[m.queue_index()], 133.11259810113373);
  EXPECT_EQ(x[m.rate_index(0)], 737041.21487490111);
  EXPECT_EQ(x[m.rate_index(1)], 383464.10061161377);
  EXPECT_EQ(x[m.rate_index(2)], 132165.52683929729);
}

TEST(TimelyFluid, GoldenTrajectoryPinWithJitter) {
  // Jitter exercises the measured-queue lens (the jitter draw enters both
  // the lookup delay and the apparent queue) on both gradient samples.
  TimelyFluidParams p;
  p.num_flows = 2;
  p.feedback_jitter = JitterProcess(20e-6, 10e-6, 42);
  TimelyFluidModel m(p);
  auto x0 = m.initial_state();
  x0[m.rate_index(0)] = 0.7 * p.capacity_pps();
  x0[m.rate_index(1)] = 0.3 * p.capacity_pps();
  DdeSolver solver(m, std::move(x0), 0.0, m.suggested_dt());
  solver.run_until(2e-3, nullptr, 0.0);
  const auto x = solver.state();
  EXPECT_EQ(solver.time(), 0.0020002499999999999);
  EXPECT_EQ(x[m.queue_index()], 0.0);
  EXPECT_EQ(x[m.rate_index(0)], 756321.2722689833);
  EXPECT_EQ(x[m.rate_index(1)], 380861.3517757642);
}


// Wider 17-digit end-state pins: 16 flows with spread-out rates summing to
// 1.5 C, started from a queue of 1.5 x qhigh, for 5 ms. A 50 Mb/s additive
// step (5x the default) lets the crushed rates refill the queue inside the
// window, so the run falls through qhigh and qlow and climbs back through
// qlow with a rising gradient: every rate branch of Equations 21/29 and both
// clamped ends of the Equation-30 ramp feed the pinned values (the N = 2-3
// pins above never reach the gradient-decrease branch).
struct WideTimelyRun {
  std::vector<double> x;
  int qhigh_crossings = 0;
  int qlow_crossings = 0;
  double band_g_min = 0.0;  ///< gradient extremes while qlow < q < qhigh
  double band_g_max = 0.0;
};

template <typename Model>
WideTimelyRun run_wide_timely(const Model& m) {
  const TimelyFluidParams& p = m.params();
  auto x0 = m.initial_state();
  x0[m.queue_index()] = 1.5 * p.qhigh_pkts();
  for (int i = 0; i < p.num_flows; ++i) {
    x0[m.rate_index(i)] = p.capacity_pps() / p.num_flows *
                          (0.5 + 2.0 * i / (p.num_flows - 1));
  }
  WideTimelyRun run;
  double q_prev = x0[m.queue_index()];
  DdeSolver solver(m, std::move(x0), 0.0, m.suggested_dt());
  solver.run_until(
      5e-3,
      [&](double, std::span<const double> x) {
        const double q = x[m.queue_index()];
        const double qhigh = p.qhigh_pkts();
        const double qlow = p.qlow_pkts();
        run.qhigh_crossings += (q_prev > qhigh) != (q > qhigh);
        run.qlow_crossings += (q_prev < qlow) != (q < qlow);
        q_prev = q;
        if (q <= qlow || q >= qhigh) return;
        for (int i = 0; i < p.num_flows; ++i) {
          run.band_g_min = std::min(run.band_g_min, x[m.gradient_index(i)]);
          run.band_g_max = std::max(run.band_g_max, x[m.gradient_index(i)]);
        }
      },
      0.0);
  run.x.assign(solver.state().begin(), solver.state().end());
  return run;
}

void expect_wide_coverage(const WideTimelyRun& run) {
  EXPECT_GE(run.qhigh_crossings, 1);
  EXPECT_GE(run.qlow_crossings, 2);
  EXPECT_LT(run.band_g_min, -0.25);
  EXPECT_GT(run.band_g_max, 0.25);
}

TimelyFluidParams wide_params(TimelyFluidParams p) {
  p.num_flows = 16;
  p.delta = mbps(50.0);
  return p;
}

TEST(TimelyFluid, GoldenTrajectoryPinSixteenFlowsAllBranches) {
  const TimelyFluidParams p = wide_params(TimelyFluidParams{});
  TimelyFluidModel m(p);
  const WideTimelyRun run = run_wide_timely(m);
  expect_wide_coverage(run);
  const double rates[16] = {
      44289.747859786417, 46681.522856517127,
      48740.565771613168, 50484.329350086024,
      51965.564722540446, 53234.003261454112,
      54330.136204533606, 55285.769973844173,
      56125.75220858222, 56869.591168439234,
      57532.737453043163, 58127.550368022843,
      58664.015975416078, 59150.281240705946,
      59593.053543558191, 59997.902364219233};
  EXPECT_EQ(run.x[m.queue_index()], 0.0);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(run.x[m.rate_index(i)], rates[i]) << "flow " << i;
  }
  EXPECT_EQ(run.x[m.gradient_index(0)], -0.60384125109712705);
  EXPECT_EQ(run.x[m.gradient_index(15)], -0.5298028956004881);
}

TEST(PatchedTimely, GoldenTrajectoryPinSixteenFlowsAllBranches) {
  const TimelyFluidParams p = wide_params(patched_timely_defaults());
  PatchedTimelyFluidModel m(p);
  const WideTimelyRun run = run_wide_timely(m);
  expect_wide_coverage(run);
  const double rates[16] = {
      62797.502561041678, 70601.725138328329,
      76828.654283105861, 81912.578209341562,
      86141.753306939005, 89715.024434654144,
      92773.99726089809, 95422.251572090885,
      97737.302321191295, 99778.313072952646,
      101591.22331762452, 103212.24769684188,
      104670.31995925166, 105988.83515819772,
      107186.91444154101, 108280.33839347074};
  EXPECT_EQ(run.x[m.queue_index()], 285.24982130243143);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(run.x[m.rate_index(i)], rates[i]) << "flow " << i;
  }
  EXPECT_EQ(run.x[m.gradient_index(0)], 2.7422042887793991);
  EXPECT_EQ(run.x[m.gradient_index(15)], 1.6718523181818052);
}

}  // namespace
}  // namespace ecnd::fluid
