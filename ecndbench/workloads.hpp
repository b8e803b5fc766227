#pragma once
// The benchmark's workloads, built from the public APIs of sim / workload /
// proto (packet cells) and fluid / control / core (fluid cells).
//
// A workload repetition ("rep") runs a fixed list of cells. Each cell is
// split into a timed set-up (topology or model construction, including the
// fixed-point solve) and a timed run, and its simulated outputs are checked.
// Inputs are a pure function of the seed, so equal seeds give equal runs.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exp/scenarios.hpp"
#include "fluid/fluid_model.hpp"
#include "probes.hpp"
#include "sim/network.hpp"
#include "workload/traffic.hpp"

namespace ecnd::bench {

// -- packet cells -------------------------------------------------------------

enum class Topology { kDumbbell, kFatTree };

struct PacketCell {
  Topology topology = Topology::kDumbbell;
  exp::Protocol protocol = exp::Protocol::kDcqcn;
  int flows = 0;
  std::uint64_t seed = 1;
};

/// A built packet cell, ready to run: the network with its protocol wired in
/// and the Poisson generator started.
struct PacketScenario {
  explicit PacketScenario(std::uint64_t seed) : net(seed) {}
  sim::Network net;
  std::optional<workload::PoissonTraffic> traffic;
  PicoTime horizon = 0;
};

/// Set-up half of a packet cell. `proto`, when non-null, wraps every rate
/// controller in the counting decorator.
std::unique_ptr<PacketScenario> build_packet_cell(const PacketCell& cell,
                                                  ProtoStats* proto);

/// What a packet cell simulated. Everything here is a pure function of the
/// cell, whether or not it ran traced.
struct PacketOutput {
  std::vector<sim::FlowRecord> completed;
  int generated = 0;
  int truncated = 0;
  std::uint64_t events = 0;
  std::uint64_t pkt_tx = 0;           ///< Port::tx_packets over every port
  std::uint64_t drops = 0;
  std::uint64_t ecn_marked = 0;
  std::uint64_t delivered_bytes = 0;  ///< data_bytes_received over every host
  PicoTime end_time = 0;
};

PacketOutput run_packet_cell(PacketScenario& scenario);

/// Output checks: with every flow complete, the flows delivered exactly their
/// sizes, and PFC kept the network lossless. Returns one line per failed
/// check. Truncated flows are failures too; callers count them one by one.
std::vector<std::string> check_packet(const PacketOutput& out);

// -- fluid cells ---------------------------------------------------------------

struct FluidCell {
  bool dcqcn = true;
  bool large = false;      ///< N = 10,000 at the fixed point; else N = 2
  double jitter_us = 0.0;  ///< small-N cells only
  std::uint64_t seed = 1;
};

/// A built fluid cell: the model, its initial state, the integration plan,
/// and (large-N) the closed-form fixed point the run must hold.
struct FluidJob {
  FluidCell cell;
  std::unique_ptr<fluid::FluidModel> model;
  std::vector<double> x0;
  double duration_s = 0.0;
  double dt_s = 0.0;
  double sample_interval_s = 0.0;
  double q_star_bytes = 0.0;
  double r_star_gbps = 0.0;

  /// N x RK4 steps: the simulated work, fixed by horizon and step.
  std::uint64_t flow_steps() const;
};

/// Set-up half of a fluid cell (includes the DCQCN fixed-point solve).
FluidJob build_fluid_cell(const FluidCell& cell);

struct FluidOutput {
  /// Every sampled value in recording order: queue then flow rates (small-N)
  /// or queue, sum, min, max, Jain (large-N).
  std::vector<double> samples;
  double final_queue_bytes = 0.0;
  double final_min_rate_gbps = 0.0;
  double final_max_rate_gbps = 0.0;
  double final_jain = 0.0;
  double cpu_s = 0.0;     ///< thread CPU of the integration
  CallStats rhs;          ///< traced runs only
};

/// Run half of a fluid cell; `traced` integrates through TracedFluidModel.
FluidOutput run_fluid_cell(const FluidJob& job, bool traced);

/// Large-N: final queue within 2% of q*, every rate within 5% of r*, Jain 1.
/// Small-N: every sampled value finite.
std::vector<std::string> check_fluid(const FluidJob& job, const FluidOutput& out);

// -- workloads -----------------------------------------------------------------

/// The cells of one rep of `workload` for rep input seed `seed`; empty for
/// an unknown workload name.
std::vector<PacketCell> packet_cells(const std::string& workload,
                                     std::uint64_t seed);
std::vector<FluidCell> fluid_cells(const std::string& workload,
                                   std::uint64_t seed);

/// Worker threads of the fluid sweep.
inline constexpr std::size_t kSweepThreads = 2;

}  // namespace ecnd::bench
