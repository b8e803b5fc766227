#include "workloads.hpp"

#include <cmath>
#include <cstdio>

#include "control/dcqcn_analysis.hpp"
#include "core/parallel.hpp"
#include "fluid/dcqcn_model.hpp"
#include "fluid/timely_model.hpp"
#include "proto/factories.hpp"
#include "sim/topology.hpp"
#include "workload/flow_size.hpp"

namespace ecnd::bench {
namespace {

// Per-cell sizes. A rep of each workload takes about a second of host CPU on
// a 4-core x86 box (RelWithDebInfo), so a run of a few seconds takes several
// reps and reports their median.
constexpr int kDumbbellFlows = 400;  // per protocol cell
constexpr int kFatTreeFlows = 250;
constexpr double kFatTreeLoad = 0.6;
constexpr double kFatTreeFullLoadGbps = 160.0;  // k=4 core bisection, 10G links
// Simulated drain time after generation: 30 MB at 10 Mb/s takes 24 s.
constexpr double kDrainS = 30.0;

// Large-N horizons: seeded at the fixed point, so the run holds it from t=0;
// the horizon only sets the amount of work.
constexpr double kLargeDcqcnHorizon = 1.5e-3;
constexpr double kLargeDcqcnDt = 2e-6;
constexpr double kLargeTimelyHorizon = 1e-3;
constexpr double kLargeTimelyDt = 1e-6;
constexpr double kSmallHorizon = 0.03;
constexpr double kJitterResample = 20e-6;

sim::RateControllerFactory controller_factory(exp::Protocol protocol,
                                              const exp::FctConfig& config,
                                              sim::Simulator& sim) {
  switch (protocol) {
    case exp::Protocol::kDcqcn:
      return proto::make_dcqcn_factory(sim, config.dcqcn);
    case exp::Protocol::kTimely:
      return proto::make_timely_factory(config.timely);
    case exp::Protocol::kPatchedTimely:
      return proto::make_patched_timely_factory(config.patched);
  }
  return {};
}

std::uint64_t sum_ports(const sim::Network& net,
                        std::uint64_t (sim::Port::*counter)() const) {
  std::uint64_t total = 0;
  for (const auto& host : net.hosts()) total += (host->nic().*counter)();
  for (const auto& sw : net.switches()) {
    for (int p = 0; p < sw->num_ports(); ++p) total += (sw->port(p).*counter)();
  }
  return total;
}

std::string cell_label(const FluidCell& cell) {
  char label[64];
  std::snprintf(label, sizeof(label), "%s N=%d jitter=%gus",
                cell.dcqcn ? "dcqcn" : "patched_timely", cell.large ? 10000 : 2,
                cell.jitter_us);
  return label;
}

}  // namespace

std::unique_ptr<PacketScenario> build_packet_cell(const PacketCell& cell,
                                                  ProtoStats* proto) {
  // make_fct_config carries the paper's §5.1 settings: TIMELY with 64KB
  // burst pacing, patched TIMELY with 16KB, DCQCN with RED; PFC on.
  const exp::FctConfig fct = exp::make_fct_config(cell.protocol, 0.8);
  auto scenario = std::make_unique<PacketScenario>(cell.seed);
  sim::Network& net = scenario->net;

  workload::TrafficConfig traffic;
  traffic.num_flows = cell.flows;
  traffic.seed = cell.seed;
  workload::TrafficEndpoints endpoints{&net, {}, {}};
  if (cell.topology == Topology::kDumbbell) {
    sim::DumbbellConfig config;
    config.pairs = fct.pairs;
    config.link_rate = fct.link_rate;
    config.link_delay = fct.link_delay;
    config.red = fct.red;
    config.red.enabled = cell.protocol == exp::Protocol::kDcqcn;
    config.pfc = fct.pfc;
    sim::Dumbbell dumbbell = sim::make_dumbbell(net, config);
    endpoints.senders = dumbbell.senders;
    endpoints.receivers = dumbbell.receivers;
    traffic.load = fct.load;
  } else {
    sim::FabricConfig config;
    config.k = 4;
    config.hosts_per_edge = 6;  // 48 hosts, 3:1 oversubscribed
    config.red = fct.red;
    config.red.enabled = cell.protocol == exp::Protocol::kDcqcn;
    config.pfc = fct.pfc;
    sim::Fabric fabric = sim::make_fabric(net, config);
    endpoints.senders = fabric.hosts;  // all-to-all
    endpoints.receivers = fabric.hosts;
    traffic.load = kFatTreeLoad;
    traffic.full_load_bps = gbps(kFatTreeFullLoadGbps);
  }

  sim::RateControllerFactory factory =
      controller_factory(cell.protocol, fct, net.sim());
  if (proto != nullptr) factory = traced_factory(std::move(factory), *proto);
  for (sim::Host* sender : endpoints.senders) {
    sender->set_controller_factory(factory);
  }

  const auto sizes = workload::FlowSizeDistribution::web_search();
  scenario->traffic.emplace(std::move(endpoints), sizes, traffic);
  scenario->traffic->start();
  // Every flow must complete. run_fct_experiment's horizon (4x the expected
  // generation span plus 1 s) cuts off TIMELY's slow tail on about 1 cell in
  // 30; the drain allowance here outlasts the largest web-search flow at
  // TIMELY's 10 Mb/s rate floor, so a flow that misses it has stalled.
  const double span_s =
      cell.flows * sizes.mean_bytes() * 8.0 / scenario->traffic->offered_load_bps();
  scenario->horizon = seconds(span_s * 4.0 + kDrainS);
  return scenario;
}

PacketOutput run_packet_cell(PacketScenario& scenario) {
  workload::PoissonTraffic& traffic = *scenario.traffic;
  traffic.run_to_completion(scenario.horizon);
  const sim::Network& net = scenario.net;

  PacketOutput out;
  out.completed = traffic.completed();
  out.generated = traffic.generated();
  out.truncated = traffic.truncated();
  out.events = scenario.net.sim().events_processed();
  out.pkt_tx = sum_ports(net, &sim::Port::tx_packets);
  out.ecn_marked = sum_ports(net, &sim::Port::marked_packets);
  out.drops = net.total_drops();
  for (const auto& host : net.hosts()) {
    out.delivered_bytes += host->data_bytes_received();
  }
  out.end_time = scenario.net.sim().now();
  return out;
}

std::vector<std::string> check_packet(const PacketOutput& out) {
  std::vector<std::string> failures;
  std::uint64_t expected = 0;
  for (const sim::FlowRecord& record : out.completed) expected += record.size;
  // With every flow complete, the receivers must hold exactly the bytes the
  // completed flows carried.
  if (out.truncated == 0 && out.delivered_bytes != expected) {
    failures.push_back("delivered " + std::to_string(out.delivered_bytes) +
                       " bytes, completed flows sum to " +
                       std::to_string(expected));
  }
  if (out.drops != 0) {
    failures.push_back(std::to_string(out.drops) + " drops under PFC");
  }
  return failures;
}

std::uint64_t FluidJob::flow_steps() const {
  const double raw = duration_s / dt_s;
  const auto steps = static_cast<std::uint64_t>(std::ceil(raw * (1.0 - 1e-12)));
  return steps * static_cast<std::uint64_t>(model->num_flows());
}

FluidJob build_fluid_cell(const FluidCell& cell) {
  FluidJob job;
  job.cell = cell;
  if (cell.large && cell.dcqcn) {
    // Theorem 1 / Equation 14 fixed point at 100G, C/N = 1250 pps.
    fluid::DcqcnFluidParams p;
    p.link_rate = gbps(100.0);
    p.num_flows = 10000;
    p.red_linear_extension = true;
    const auto fp = control::solve_dcqcn_fixed_point(p);
    auto model = std::make_unique<fluid::DcqcnFluidModel>(p);
    job.x0 = model->initial_state();
    job.x0[model->queue_index()] = fp.q_star_pkts;
    for (int i = 0; i < p.num_flows; ++i) {
      job.x0[model->alpha_index(i)] = fp.alpha_star;
      job.x0[model->target_rate_index(i)] = fp.target_rate_pps;
      job.x0[model->rate_index(i)] = fp.rate_pps;
    }
    job.q_star_bytes = fp.q_star_bytes(p);
    job.r_star_gbps = fp.rate_pps * 8.0 * p.mtu_bytes / 1e9;
    job.duration_s = kLargeDcqcnHorizon;
    job.dt_s = kLargeDcqcnDt;
    job.sample_interval_s = 1e-4;
    job.model = std::move(model);
  } else if (cell.large) {
    // Theorem 5 queue of patched TIMELY at 400G, delta = 1 Mb/s.
    fluid::TimelyFluidParams p = fluid::patched_timely_defaults();
    p.link_rate = gbps(400.0);
    p.delta = mbps(1.0);
    p.num_flows = 10000;
    auto model = std::make_unique<fluid::PatchedTimelyFluidModel>(p);
    job.x0 = model->initial_state();  // rates C/N, gradients 0
    const double q_star_pkts = model->fixed_point_queue_pkts();
    job.x0[model->queue_index()] = q_star_pkts;
    job.q_star_bytes = q_star_pkts * p.mtu_bytes;
    job.r_star_gbps = p.capacity_pps() / p.num_flows * 8.0 * p.mtu_bytes / 1e9;
    job.duration_s = kLargeTimelyHorizon;
    job.dt_s = kLargeTimelyDt;
    job.sample_interval_s = 1e-4;
    job.model = std::move(model);
  } else {
    // Figure 20: N = 2 under uniform feedback jitter.
    const fluid::JitterProcess jitter =
        cell.jitter_us > 0.0
            ? fluid::JitterProcess(cell.jitter_us * 1e-6, kJitterResample,
                                   cell.seed)
            : fluid::JitterProcess();
    if (cell.dcqcn) {
      fluid::DcqcnFluidParams p;
      p.num_flows = 2;
      p.feedback_jitter = jitter;
      job.model = std::make_unique<fluid::DcqcnFluidModel>(p);
    } else {
      fluid::TimelyFluidParams p = fluid::patched_timely_defaults();
      p.num_flows = 2;
      p.feedback_jitter = jitter;
      job.model = std::make_unique<fluid::PatchedTimelyFluidModel>(p);
    }
    job.x0 = job.model->initial_state();
    job.duration_s = kSmallHorizon;
    job.dt_s = job.model->suggested_dt();
    job.sample_interval_s = 1e-4;
  }
  return job;
}

FluidOutput run_fluid_cell(const FluidJob& job, bool traced) {
  std::optional<TracedFluidModel> wrapper;
  if (traced) wrapper.emplace(*job.model);
  const fluid::FluidModel& model =
      traced ? static_cast<const fluid::FluidModel&>(*wrapper) : *job.model;

  FluidOutput out;
  const double cpu0 = thread_cpu_now_s();
  auto append = [&out](const TimeSeries& series) {
    for (std::size_t k = 0; k < series.size(); ++k) {
      out.samples.push_back(series[k].value);
    }
  };
  if (job.cell.large) {
    const fluid::FluidAggregateRun run = fluid::simulate_aggregates(
        model, job.duration_s, job.sample_interval_s, job.x0, job.dt_s);
    out.cpu_s = thread_cpu_now_s() - cpu0;
    for (const TimeSeries* s : {&run.queue_bytes, &run.sum_rate_gbps,
                                &run.min_rate_gbps, &run.max_rate_gbps,
                                &run.jain_fairness}) {
      append(*s);
    }
    out.final_queue_bytes = run.queue_bytes.back().value;
    out.final_min_rate_gbps = run.min_rate_gbps.back().value;
    out.final_max_rate_gbps = run.max_rate_gbps.back().value;
    out.final_jain = run.jain_fairness.back().value;
  } else {
    const fluid::FluidRun run =
        fluid::simulate(model, job.duration_s, job.sample_interval_s, job.x0);
    out.cpu_s = thread_cpu_now_s() - cpu0;
    append(run.queue_bytes);
    for (const TimeSeries& rate : run.flow_rate_gbps) append(rate);
    out.final_queue_bytes = run.queue_bytes.back().value;
  }
  if (wrapper) out.rhs = wrapper->rhs_stats();
  return out;
}

std::vector<std::string> check_fluid(const FluidJob& job, const FluidOutput& out) {
  std::vector<std::string> failures;
  const std::string label = cell_label(job.cell);
  for (double v : out.samples) {
    if (!std::isfinite(v)) {
      failures.push_back(label + ": non-finite sample");
      break;
    }
  }
  if (!job.cell.large) return failures;
  auto near = [](double v, double ref, double tol) {
    return std::fabs(v - ref) <= tol * std::fabs(ref);
  };
  if (!near(out.final_queue_bytes, job.q_star_bytes, 0.02)) {
    failures.push_back(label + ": queue " + std::to_string(out.final_queue_bytes) +
                       " B not within 2% of q* " + std::to_string(job.q_star_bytes));
  }
  if (!near(out.final_min_rate_gbps, job.r_star_gbps, 0.05) ||
      !near(out.final_max_rate_gbps, job.r_star_gbps, 0.05)) {
    failures.push_back(label + ": rates [" +
                       std::to_string(out.final_min_rate_gbps) + ", " +
                       std::to_string(out.final_max_rate_gbps) +
                       "] Gb/s not within 5% of r* " +
                       std::to_string(job.r_star_gbps));
  }
  if (std::fabs(out.final_jain - 1.0) > 1e-9) {
    failures.push_back(label + ": Jain " + std::to_string(out.final_jain));
  }
  return failures;
}

std::vector<PacketCell> packet_cells(const std::string& workload,
                                     std::uint64_t seed) {
  if (workload == "dumbbell_websearch") {
    // One cell per protocol, in sequence; each draws its own flows.
    std::vector<PacketCell> cells;
    std::uint64_t index = 0;
    for (exp::Protocol protocol :
         {exp::Protocol::kDcqcn, exp::Protocol::kTimely,
          exp::Protocol::kPatchedTimely}) {
      cells.push_back({Topology::kDumbbell, protocol, kDumbbellFlows,
                       par::task_seed(seed, index++)});
    }
    return cells;
  }
  if (workload == "fattree_websearch") {
    return {{Topology::kFatTree, exp::Protocol::kDcqcn, kFatTreeFlows,
             par::task_seed(seed, 0)}};
  }
  return {};
}

std::vector<FluidCell> fluid_cells(const std::string& workload,
                                   std::uint64_t seed) {
  if (workload != "fluid_sweep") return {};
  // Largest first, so the two workers start on the cells that bound the
  // sweep's wall time.
  std::vector<FluidCell> cells{{false, true, 0.0, 0}, {true, true, 0.0, 0}};
  std::uint64_t index = 0;
  for (double jitter_us : {0.0, 50.0, 100.0}) {
    for (bool dcqcn : {true, false}) {
      cells.push_back({dcqcn, false, jitter_us, par::task_seed(seed, index++)});
    }
  }
  return cells;
}

}  // namespace ecnd::bench
