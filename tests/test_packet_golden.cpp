// Golden guard for the packet engine: short runs of the scenarios the paper's
// packet-level results rest on, each pinned to everything it produces — the
// exact list of completed FlowRecords and every port's transmitted, marked
// and dropped packet counts. The pins were captured before the transmit path
// stopped scheduling idle completion events; a change to the event core that
// claims to keep the (t, seq) dispatch order must leave every pin untouched.
//
// The runs end with run_until() at a fixed horizon, which dispatches exactly
// the events at or before it under any event-fusion scheme, so the pinned
// state is a function of the scenario alone.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/hash.hpp"
#include "exp/scenarios.hpp"
#include "proto/factories.hpp"
#include "robust/fault_injector.hpp"
#include "sim/topology.hpp"
#include "workload/traffic.hpp"

namespace ecnd {
namespace {

struct Golden {
  std::size_t flows = 0;          ///< completed FlowRecords
  std::uint64_t tx_packets = 0;   ///< summed over every port
  std::uint64_t marked = 0;
  std::uint64_t drops = 0;
  std::uint64_t digest = 0;       ///< fnv1a64 over the full listing below

  bool operator==(const Golden&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Golden& g) {
  char digest[19];
  std::snprintf(digest, sizeof(digest), "0x%016llx",
                static_cast<unsigned long long>(g.digest));
  return os << "{" << g.flows << ", " << g.tx_packets << ", " << g.marked
            << ", " << g.drops << ", " << digest << "}";
}

void add_port(const sim::Port& port, std::string& listing, Golden& g) {
  listing += port.name() + " " + std::to_string(port.tx_packets()) + " " +
             std::to_string(port.marked_packets()) + " " +
             std::to_string(port.drops()) + "\n";
  g.tx_packets += port.tx_packets();
  g.marked += port.marked_packets();
  g.drops += port.drops();
}

/// One line per completed flow (completion order), then one per port (host
/// NICs, then switch ports in wiring order), digested.
Golden summarize(sim::Network& net, const std::vector<sim::FlowRecord>& flows) {
  Golden g;
  std::string listing;
  for (const sim::FlowRecord& r : flows) {
    listing += std::to_string(r.id) + " " + std::to_string(r.src_host) + " " +
               std::to_string(r.dst_host) + " " + std::to_string(r.size) +
               " " + std::to_string(r.start) + " " + std::to_string(r.end) +
               "\n";
  }
  g.flows = flows.size();
  for (const auto& host : net.hosts()) add_port(host->nic(), listing, g);
  for (const auto& sw : net.switches()) {
    for (int p = 0; p < sw->num_ports(); ++p) add_port(sw->port(p), listing, g);
  }
  g.digest = fnv1a64(listing);
  return g;
}

sim::RateControllerFactory factory_for(exp::Protocol protocol,
                                       const exp::FctConfig& fct,
                                       sim::Simulator& sim) {
  switch (protocol) {
    case exp::Protocol::kDcqcn:
      return proto::make_dcqcn_factory(sim, fct.dcqcn);
    case exp::Protocol::kTimely:
      return proto::make_timely_factory(fct.timely);
    case exp::Protocol::kPatchedTimely:
      return proto::make_patched_timely_factory(fct.patched);
  }
  return {};
}

/// Knobs of one dumbbell run; everything else is the Figure-14 setup
/// (make_fct_config: 10 pairs, 10G, 1us links, PFC on, RED for DCQCN).
struct DumbbellRun {
  exp::Protocol protocol = exp::Protocol::kDcqcn;
  /// Senders [mixed_from, pairs) run patched TIMELY instead (-1 = none).
  int mixed_from = -1;
  int flows = 60;
  double horizon_ms = 80.0;
  bool pi_aqm = false;
  std::optional<robust::FaultProfile> faults;
};

Golden run_dumbbell(const DumbbellRun& run) {
  const exp::FctConfig fct = exp::make_fct_config(run.protocol, 0.8);
  sim::Network net(fct.seed);
  sim::DumbbellConfig config;
  config.pairs = fct.pairs;
  config.link_rate = fct.link_rate;
  config.link_delay = fct.link_delay;
  config.red = fct.red;
  config.red.enabled = run.protocol == exp::Protocol::kDcqcn;
  config.pfc = fct.pfc;
  sim::Dumbbell dumbbell = sim::make_dumbbell(net, config);
  if (run.pi_aqm) {
    sim::PiAqmConfig pi;
    pi.enabled = true;
    dumbbell.bottleneck().set_pi_aqm(pi);
  }
  robust::FaultInjector injector(fct.fault_seed);
  if (run.faults) {
    injector.attach_host_nics(net, *run.faults);
    injector.attach(dumbbell.bottleneck(), run.faults->data_only());
  }
  for (std::size_t i = 0; i < dumbbell.senders.size(); ++i) {
    const bool patched =
        run.mixed_from >= 0 && static_cast<int>(i) >= run.mixed_from;
    dumbbell.senders[i]->set_controller_factory(factory_for(
        patched ? exp::Protocol::kPatchedTimely : run.protocol, fct,
        net.sim()));
  }
  workload::TrafficConfig traffic_config;
  traffic_config.load = fct.load;
  traffic_config.num_flows = run.flows;
  traffic_config.seed = fct.seed;
  workload::PoissonTraffic traffic(
      dumbbell, workload::FlowSizeDistribution::web_search(), traffic_config);
  traffic.start();
  net.sim().run_until(milliseconds(run.horizon_ms));
  if (run.faults) {
    // The scenario must actually exercise what it claims to.
    const robust::FaultCounters& c = injector.counters();
    EXPECT_GT(c.cnps_dropped + c.acks_dropped, 0u);
    EXPECT_GT(c.cnps_duplicated + c.acks_duplicated, 0u);
    EXPECT_GT(c.feedback_delayed, 0u);
    EXPECT_GT(c.data_dropped, 0u);
  }
  return summarize(net, traffic.completed());
}

TEST(PacketGolden, DumbbellDcqcn) {
  EXPECT_EQ(run_dumbbell({}),
            (Golden{43, 248826, 7754, 0, 0xbb3ea73d6bfddf7dull}));
}

TEST(PacketGolden, DumbbellTimelyBurstPacing) {
  DumbbellRun run;
  run.protocol = exp::Protocol::kTimely;
  EXPECT_EQ(run_dumbbell(run),
            (Golden{34, 72846, 0, 0, 0xb27e9c993fe7fc6eull}));
}

TEST(PacketGolden, DumbbellPiAqm) {
  DumbbellRun run;
  run.pi_aqm = true;
  EXPECT_EQ(run_dumbbell(run),
            (Golden{42, 221376, 1676, 0, 0x8e2b74794fe85ddaull}));
}

TEST(PacketGolden, DumbbellFaultsReorderDuplicateDrop) {
  robust::FaultProfile faults;
  faults.cnp_loss = 0.05;
  faults.ack_loss = 0.05;
  faults.cnp_duplicate = 0.1;
  faults.ack_duplicate = 0.1;
  faults.feedback_delay_prob = 0.2;
  faults.feedback_extra_delay = microseconds(20.0);
  faults.data_loss = 0.001;
  faults.ecn_flip = 0.01;
  DumbbellRun run;
  run.mixed_from = 5;  // CNP faults on DCQCN flows, ACK faults on TIMELY's
  run.faults = faults;
  EXPECT_EQ(run_dumbbell(run),
            (Golden{43, 220433, 12707, 0, 0x6134949a0c8a3921ull}));
}

TEST(PacketGolden, FatTreePfcEcmp) {
  const exp::FctConfig fct = exp::make_fct_config(exp::Protocol::kDcqcn, 0.8);
  sim::Network net(fct.seed);
  sim::FabricConfig config;
  config.k = 4;
  config.hosts_per_edge = 6;  // 48 hosts, 3:1 oversubscribed
  config.red = fct.red;
  config.pfc = fct.pfc;
  sim::Fabric fabric = sim::make_fabric(net, config);
  for (sim::Host* host : fabric.hosts) {
    host->set_controller_factory(
        proto::make_dcqcn_factory(net.sim(), fct.dcqcn));
  }
  workload::TrafficConfig traffic_config;
  traffic_config.load = 0.6;
  traffic_config.full_load_bps = gbps(160.0);
  traffic_config.num_flows = 150;
  traffic_config.seed = fct.seed;
  workload::PoissonTraffic traffic(
      workload::TrafficEndpoints{&net, fabric.hosts, fabric.hosts},
      workload::FlowSizeDistribution::web_search(), traffic_config);
  traffic.start();
  net.sim().run_until(milliseconds(20.0));
  std::uint64_t pause_frames = 0;
  for (const auto& sw : net.switches()) pause_frames += sw->pause_frames_sent();
  EXPECT_GT(pause_frames, 0u) << "the run must exercise PFC";
  EXPECT_EQ(summarize(net, traffic.completed()),
            (Golden{125, 650533, 40747, 0, 0x8588288aa11c893cull}));
}

}  // namespace
}  // namespace ecnd
