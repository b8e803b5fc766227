// Micro-benchmarks (google-benchmark) for the two engines everything else
// rides on: the DDE integrator and the packet-level event core. Not a paper
// figure; used to keep the harnesses fast enough for the full sweeps. The
// gated perf numbers come from the benchmark in ecndbench/ instead.

#include <benchmark/benchmark.h>

#include "exp/scenarios.hpp"
#include "fluid/dcqcn_model.hpp"
#include "fluid/fluid_model.hpp"
#include "fluid/timely_model.hpp"
#include "proto/factories.hpp"
#include "sim/network.hpp"

namespace {

using namespace ecnd;

void BM_DdeSolverDcqcnStep(benchmark::State& state) {
  fluid::DcqcnFluidParams p;
  p.num_flows = static_cast<int>(state.range(0));
  fluid::DcqcnFluidModel model(p);
  fluid::DdeSolver solver(model, model.initial_state(), 0.0, model.suggested_dt());
  for (auto _ : state) {
    solver.step();
    benchmark::DoNotOptimize(solver.state().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DdeSolverDcqcnStep)->Arg(2)->Arg(10)->Arg(64)->Arg(1000);

void BM_DdeSolverTimelyStep(benchmark::State& state) {
  fluid::TimelyFluidParams p;
  p.num_flows = static_cast<int>(state.range(0));
  fluid::TimelyFluidModel model(p);
  fluid::DdeSolver solver(model, model.initial_state(), 0.0, model.suggested_dt());
  for (auto _ : state) {
    solver.step();
    benchmark::DoNotOptimize(solver.state().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DdeSolverTimelyStep)->Arg(2)->Arg(16)->Arg(1000);

// Patched TIMELY, the model behind the benchmark's slowest fluid cell, on
// that cell's 400G link (10k flows need C >= N x the 1250 pps rate floor).
// ns_per_flow_rhs spreads the step's wall time over its 4 x N per-flow RHS
// evaluations (4 RK4 stages of N flows), solver work included.
void BM_DdeSolverPatchedTimelyStep(benchmark::State& state) {
  fluid::TimelyFluidParams p = fluid::patched_timely_defaults();
  p.link_rate = gbps(400.0);
  p.num_flows = static_cast<int>(state.range(0));
  fluid::PatchedTimelyFluidModel model(p);
  fluid::DdeSolver solver(model, model.initial_state(), 0.0, model.suggested_dt());
  for (auto _ : state) {
    solver.step();
    benchmark::DoNotOptimize(solver.state().data());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["ns_per_flow_rhs"] = benchmark::Counter(
      4.0 * p.num_flows * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_DdeSolverPatchedTimelyStep)->Arg(2)->Arg(1000)->Arg(10000);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Network net(1);
    sim::StarConfig config;
    config.senders = 4;
    sim::Star star = make_star(net, config);
    for (sim::Host* s : star.senders) {
      s->set_controller_factory(
          proto::make_dcqcn_factory(net.sim(), proto::DcqcnRpParams{}));
    }
    for (sim::Host* s : star.senders) {
      s->start_flow(star.receiver->id(), megabytes(1.0));
    }
    state.ResumeTiming();
    net.sim().run_until(seconds(0.01));
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(net.sim().events_processed()));
  }
}
BENCHMARK(BM_SimulatorEventThroughput)->Unit(benchmark::kMillisecond);

void BM_FctExperimentSmall(benchmark::State& state) {
  for (auto _ : state) {
    auto config = exp::make_fct_config(exp::Protocol::kDcqcn, 0.4);
    config.num_flows = 100;
    const auto result = exp::run_fct_experiment(config);
    benchmark::DoNotOptimize(result.small.median_us);
  }
}
BENCHMARK(BM_FctExperimentSmall)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
