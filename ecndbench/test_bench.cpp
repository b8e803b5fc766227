// The probes must not change what is simulated: a run through the forwarding
// decorators, and a fully traced run (decorators plus armed obs counters),
// give bit-identical simulated outputs to a plain run.

#include <gtest/gtest.h>

#include <vector>

#include "obs/metrics.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace ecnd::bench {
namespace {

struct FlowKey {
  std::uint64_t id;
  Bytes size;
  PicoTime start, end;
  bool operator==(const FlowKey&) const = default;
};

struct PacketFingerprint {
  std::vector<FlowKey> flows;
  std::uint64_t events, pkt_tx, ecn_marked, delivered;
  PicoTime end_time;
  bool operator==(const PacketFingerprint&) const = default;
};

PacketFingerprint run_packet(const PacketCell& cell, bool wrapped, bool counted,
                             ProtoStats* stats_out = nullptr) {
  ProtoStats stats;
  obs::reset();
  obs::set_metrics_enabled(counted);
  auto scenario = build_packet_cell(cell, wrapped ? &stats : nullptr);
  const PacketOutput out = run_packet_cell(*scenario);
  obs::set_metrics_enabled(false);
  EXPECT_TRUE(check_packet(out).empty());
  if (stats_out != nullptr) *stats_out = stats;
  PacketFingerprint fp{{}, out.events, out.pkt_tx, out.ecn_marked,
                       out.delivered_bytes, out.end_time};
  for (const sim::FlowRecord& r : out.completed) {
    fp.flows.push_back({r.id, r.size, r.start, r.end});
  }
  return fp;
}

class PacketProbes : public ::testing::TestWithParam<PacketCell> {};

TEST_P(PacketProbes, WrappedAndTracedRunsAreBitIdentical) {
  const PacketCell cell = GetParam();
  const PacketFingerprint plain = run_packet(cell, false, false);
  ASSERT_EQ(plain.flows.size(), static_cast<std::size_t>(cell.flows));
  ProtoStats stats;
  EXPECT_EQ(run_packet(cell, true, false, &stats), plain);
  EXPECT_GT(stats.rate.calls, 0u);
  EXPECT_GT(stats.on_bytes_sent.calls, 0u);
  EXPECT_EQ(run_packet(cell, true, true), plain);
}

INSTANTIATE_TEST_SUITE_P(
    Cells, PacketProbes,
    ::testing::Values(
        PacketCell{Topology::kDumbbell, exp::Protocol::kDcqcn, 40, 7},
        PacketCell{Topology::kDumbbell, exp::Protocol::kTimely, 40, 7},
        PacketCell{Topology::kDumbbell, exp::Protocol::kPatchedTimely, 40, 7},
        PacketCell{Topology::kFatTree, exp::Protocol::kDcqcn, 30, 7}));

std::vector<double> run_fluid(const FluidJob& job, bool traced, bool counted) {
  obs::reset();
  obs::set_metrics_enabled(counted);
  const FluidOutput out = run_fluid_cell(job, traced);
  obs::set_metrics_enabled(false);
  EXPECT_TRUE(check_fluid(job, out).empty());
  if (traced) {
    EXPECT_GT(out.rhs.calls, 0u);
    EXPECT_GT(out.rhs.sampled, 0u);
  }
  return out.samples;
}

TEST(FluidProbes, WrappedAndTracedRunsAreBitIdentical) {
  for (const FluidCell& cell :
       {FluidCell{true, false, 50.0, 11}, FluidCell{false, false, 100.0, 11},
        FluidCell{true, true, 0.0, 0}}) {
    const FluidJob job = build_fluid_cell(cell);
    const std::vector<double> plain = run_fluid(job, false, false);
    ASSERT_FALSE(plain.empty());
    EXPECT_EQ(run_fluid(job, true, false), plain);
    EXPECT_EQ(run_fluid(job, true, true), plain);
  }
}

TEST(Workloads, SameSeedGivesSameInputs) {
  for (const char* w : {"dumbbell_websearch", "fattree_websearch"}) {
    const auto a = packet_cells(w, 3);
    const auto b = packet_cells(w, 3);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_NE(packet_cells(w, 4)[0].seed, a[0].seed);
  }
  EXPECT_EQ(fluid_cells("fluid_sweep", 3).size(), 8u);
  EXPECT_TRUE(packet_cells("fluid_sweep", 3).empty());
}

TEST(CallStats, SamplesOneCallInTwoToTheShift) {
  CallStats stats;
  const int calls = 10 << kSampleShift;
  for (int i = 0; i < calls; ++i) timed_call(stats, [] {});
  EXPECT_EQ(stats.calls, static_cast<std::uint64_t>(calls));
  EXPECT_EQ(stats.sampled, 10u);
}

}  // namespace
}  // namespace ecnd::bench
