// Micro-benchmarks (google-benchmark) for the two engines everything else
// rides on: the DDE integrator and the packet-level event core. Not a paper
// figure; used to keep the harnesses fast enough for the full sweeps.
//
// ECND_BENCH_JSON=<path> additionally writes a small machine-readable perf
// baseline (ns/sim-event, ns/packet-transmission, ns/RK4-step, ns per
// per-flow RHS eval at 10k flows, sweep-task throughput) measured with
// dedicated timing loops — see scripts/bench_baseline.sh and the committed
// BENCH_obs.json snapshot.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <algorithm>
#include <cstdlib>
#include <limits>
#include <thread>

#include "core/parallel.hpp"
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

double elapsed_s(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Wall-clock timing on a shared box is one-sided noise: preemption and cache
// pollution only ever make a repetition *slower*. Each baseline loop below
// therefore runs several fresh repetitions (first one doubling as warmup)
// and reports the minimum, which estimates the undisturbed cost and keeps
// the committed baseline comparable across regenerations.
constexpr int kBaselineReps = 5;

/// Packet-simulator cost of one 4-sender DCQCN incast run: wall time per
/// event dispatched and per packet transmission (Port::tx_packets over every
/// NIC and switch port). Eliding cheap events raises the per-event figure
/// while the run gets faster; the per-transmission figure follows the cost
/// of the simulated work. Each is the minimum over kBaselineReps fresh runs.
struct SimCost {
  double ns_per_event = std::numeric_limits<double>::infinity();
  double ns_per_pkt_tx = std::numeric_limits<double>::infinity();
};

SimCost measure_sim_cost() {
  SimCost best;
  for (int rep = 0; rep < kBaselineReps; ++rep) {
    sim::Network net(1);
    sim::StarConfig config;
    config.senders = 4;
    sim::Star star = make_star(net, config);
    for (sim::Host* s : star.senders) {
      s->set_controller_factory(
          proto::make_dcqcn_factory(net.sim(), proto::DcqcnRpParams{}));
    }
    for (sim::Host* s : star.senders) {
      s->start_flow(star.receiver->id(), megabytes(4.0));
    }
    const auto t0 = std::chrono::steady_clock::now();
    net.sim().run_until(seconds(0.02));
    const double ns = elapsed_s(t0) * 1e9;
    std::uint64_t pkt_tx = 0;
    for (const auto& host : net.hosts()) pkt_tx += host->nic().tx_packets();
    for (const auto& sw : net.switches()) {
      for (int p = 0; p < sw->num_ports(); ++p) {
        pkt_tx += sw->port(p).tx_packets();
      }
    }
    best.ns_per_event = std::min(
        best.ns_per_event,
        ns / static_cast<double>(net.sim().events_processed()));
    best.ns_per_pkt_tx =
        std::min(best.ns_per_pkt_tx, ns / static_cast<double>(pkt_tx));
  }
  return best;
}

/// ns per guarded RK4 step of the 10-flow DCQCN fluid model. Minimum over
/// kBaselineReps fresh solvers.
double measure_ns_per_rk4_step() {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kBaselineReps; ++rep) {
    fluid::DcqcnFluidParams p;
    p.num_flows = 10;
    fluid::DcqcnFluidModel model(p);
    fluid::DdeSolver solver(model, model.initial_state(), 0.0,
                            model.suggested_dt());
    constexpr int kSteps = 20000;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kSteps; ++i) solver.step();
    best = std::min(best, elapsed_s(t0) * 1e9 / kSteps);
  }
  return best;
}

/// ns per per-flow RHS evaluation at the 10k-flow scale target: one DCQCN
/// run with N = 10000 (the feasibility boundary at 10G/1000B, where
/// N * kMinRatePps == capacity) integrated over a 0.1s horizon through the
/// aggregate-observables sampler. A single repetition suffices: the run is
/// 50000 steps x 4 RK4 stages x 10000 flows = 2e9 flow-evaluations, which
/// self-averages far below the rep-to-rep noise of the short loops above.
double measure_ns_per_flow_rhs() {
  fluid::DcqcnFluidParams p;
  p.num_flows = 10000;
  fluid::DcqcnFluidModel model(p);
  constexpr double kHorizon = 0.1;
  constexpr double kDt = 2e-6;
  const auto t0 = std::chrono::steady_clock::now();
  const fluid::FluidAggregateRun run =
      fluid::simulate_aggregates(model, kHorizon, 1e-3, {}, kDt);
  const double s = elapsed_s(t0);
  benchmark::DoNotOptimize(run.queue_bytes.samples().data());
  const double flow_evals = kHorizon / kDt * 4.0 * p.num_flows;
  return s * 1e9 / flow_evals;
}

/// Sweep-engine dispatch throughput: near-empty tasks, so the number is the
/// per-task overhead (slot setup, TaskScope, timing) rather than workload.
double measure_sweep_tasks_per_s() {
  constexpr std::size_t kTasks = 2048;
  std::atomic<std::uint64_t> sink{0};
  const auto t0 = std::chrono::steady_clock::now();
  par::parallel_for_each(kTasks, [&](std::size_t i) {
    sink.fetch_add(i, std::memory_order_relaxed);
  });
  return static_cast<double>(kTasks) / elapsed_s(t0);
}

/// Write the ECND_BENCH_JSON perf baseline (schema ecnd-bench-v2).
///
/// Values are wall-clock and machine-dependent: compare against
/// BENCH_obs.json on the same box only, which is why the machine descriptor
/// records hardware shape (arch, hw threads) but never a hostname — baseline
/// files must be committable without leaking where they were measured.
/// Each metric carries its own relative tolerance for ecnd-report: the two
/// tight timing loops are fairly repeatable (50%), the sweep-dispatch
/// throughput is scheduling-noise dominated (75%).
void write_baseline(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench] cannot open ECND_BENCH_JSON path %s\n", path);
    return;
  }
  const SimCost sim = measure_sim_cost();
  const double rk4_ns = measure_ns_per_rk4_step();
  const double flow_rhs_ns = measure_ns_per_flow_rhs();
  const double tasks_per_s = measure_sweep_tasks_per_s();
  const char* git_sha = std::getenv("ECND_GIT_SHA");
#if defined(__x86_64__)
  const char* arch = "x86_64";
#elif defined(__aarch64__)
  const char* arch = "aarch64";
#else
  const char* arch = "unknown";
#endif
  std::fprintf(f,
               "{\n"
               "  \"schema\": \"ecnd-bench-v2\",\n"
               "  \"git_sha\": \"%s\",\n"
               "  \"machine\": {\"arch\": \"%s\", \"hw_threads\": %u},\n"
               "  \"metrics\": {\n"
               "    \"ns_per_sim_event\": {\"value\": %.1f, \"tolerance\": 0.5},\n"
               "    \"ns_per_pkt_tx\": {\"value\": %.1f, \"tolerance\": 0.5},\n"
               "    \"ns_per_rk4_step\": {\"value\": %.1f, \"tolerance\": 0.5},\n"
               "    \"ns_per_flow_rhs\": {\"value\": %.2f, \"tolerance\": 0.5},\n"
               "    \"sweep_tasks_per_s\": {\"value\": %.0f, \"tolerance\": 0.75}\n"
               "  }\n"
               "}\n",
               git_sha != nullptr ? git_sha : "unknown", arch,
               std::thread::hardware_concurrency(), sim.ns_per_event,
               sim.ns_per_pkt_tx, rk4_ns, flow_rhs_ns, tasks_per_s);
  std::fclose(f);
  std::fprintf(stderr,
               "[bench] baseline -> %s (sim event %.0fns, pkt tx %.0fns, "
               "rk4 step %.0fns, flow rhs %.2fns at 10k, %.0f sweep "
               "tasks/s)\n",
               path, sim.ns_per_event, sim.ns_per_pkt_tx, rk4_ns, flow_rhs_ns,
               tasks_per_s);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (const char* path = std::getenv("ECND_BENCH_JSON")) write_baseline(path);
  return 0;
}
