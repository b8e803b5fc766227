// Flight recorder (src/obs/flight): deterministic hash sampling, per-hop
// postcard capture on a real Clos fabric, byte-identical exports at any
// thread count, pause-causality records, and keep-first overflow accounting.
// Everything arms the recorder
// programmatically (set_flight_enabled / set_flight_sample) so the suite
// behaves the same with or without the ECND_FLIGHT env knobs.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/parallel.hpp"
#include "exp/fabric.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/topology.hpp"

namespace ecnd::sim {
namespace {

/// Every numeric value following `"key":` in `text`, in order of appearance.
/// The exports render integers bare and doubles via to_chars, so strtod
/// handles both.
std::vector<double> values_of(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  std::vector<double> out;
  std::size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    out.push_back(std::strtod(text.c_str() + pos, nullptr));
  }
  return out;
}

class FixedRate final : public RateController {
 public:
  explicit FixedRate(BitsPerSecond rate) : rate_(rate) {}
  BitsPerSecond rate() const override { return rate_; }
  Bytes chunk_bytes() const override { return 1000; }
  bool burst_pacing() const override { return false; }
  bool wants_rtt() const override { return false; }

 private:
  BitsPerSecond rate_;
};

RateControllerFactory fixed_factory(BitsPerSecond rate) {
  return [=](int) { return std::make_unique<FixedRate>(rate); };
}

/// Arms the recorder at sample-every-flow and restores the process-wide
/// flight state afterwards, so test order never matters.
class FlightFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_flight_enabled(true);
    obs::set_flight_sample(1);
    obs::reset();  // drop buffers left by earlier tests
  }

  void TearDown() override {
    obs::set_flight_enabled(false);
    obs::set_flight_sample(obs::kDefaultFlightSample);
    obs::set_flight_capacity(std::size_t{1} << 16);
    obs::reset();
  }
};

/// A small leaf-spine with a handful of cross-leaf fixed-rate flows —
/// enough traffic to traverse host NIC, leaf and spine egresses.
void run_cross_leaf_flows(std::uint64_t seed) {
  Network net(seed);
  FabricConfig config;
  config.kind = FabricConfig::Kind::kLeafSpine;
  config.spines = 2;
  config.leaves = 2;
  config.hosts_per_leaf = 2;
  Fabric fabric = make_leaf_spine(net, config);
  for (int s = 0; s < 2; ++s) {
    Host* src = fabric.hosts[s];
    src->set_controller_factory(fixed_factory(gbps(5.0)));
    src->start_flow(fabric.hosts[2]->id(), kilobytes(32.0));
    src->start_flow(fabric.hosts[3]->id(), kilobytes(16.0));
  }
  net.sim().run_until(seconds(0.01));
}

std::string postcards_json() {
  std::ostringstream out;
  obs::write_flight_postcards_json(out);
  return out.str();
}

std::string timeline_json() {
  std::ostringstream out;
  obs::write_flight_timeline_json(out);
  return out.str();
}

std::string pausetree_json() {
  std::ostringstream out;
  obs::write_flight_pausetree_json(out);
  return out.str();
}

TEST_F(FlightFixture, SamplingIsAPureFunctionOfTheFlowIdentity) {
  obs::set_flight_sample(obs::kDefaultFlightSample);
  int sampled = 0;
  for (int src = 0; src < 16; ++src) {
    for (int flow = 1; flow <= 64; ++flow) {
      // Identities shaped like the simulator's: flow ids embed the source.
      const std::uint64_t id =
          (static_cast<std::uint64_t>(src) << 32) | static_cast<unsigned>(flow);
      const bool hit = obs::flight_sampled(src, 99, id);
      EXPECT_EQ(hit, obs::flight_sampled(src, 99, id));  // pure: no state
      sampled += hit ? 1 : 0;
    }
  }
  // 1024 correlated identities at modulus 16: the avalanche finalizer must
  // land a plausible fraction in residue 0 (raw FNV-1a missed it entirely).
  EXPECT_GT(sampled, 16);
  EXPECT_LT(sampled, 256);

  obs::set_flight_sample(1);
  EXPECT_TRUE(obs::flight_sampled(0, 1, 1));
  EXPECT_TRUE(obs::flight_sampled(7, 3, 0x500000009ULL));

  // Golden masks, pinned literally: bit i is the decision for the i-th
  // identity of a 4x4x4 (src, dst, flow) grid at each sampling modulus.
  const auto mask = [](std::uint64_t modulus) {
    obs::set_flight_sample(modulus);
    std::uint64_t bits = 0;
    int bit = 0;
    for (int src = 0; src < 4; ++src) {
      for (int dst = 0; dst < 4; ++dst) {
        for (std::uint64_t flow = 1; flow <= 4; ++flow, ++bit) {
          const std::uint64_t id = (static_cast<std::uint64_t>(src) << 32) | flow;
          if (obs::flight_sampled(src, dst, id)) bits |= 1ULL << bit;
        }
      }
    }
    return bits;
  };
  EXPECT_EQ(mask(2), 0x217de3b21d359a5aULL);
  EXPECT_EQ(mask(3), 0x3c430a0200f62908ULL);
  EXPECT_EQ(mask(16), 0x2000000004000012ULL);
}

TEST_F(FlightFixture, PostcardsRecordOrderedPerHopTimestamps) {
  run_cross_leaf_flows(1);

  const std::string json = postcards_json();
  EXPECT_NE(json.find("\"schema\":\"ecnd-flight-postcards-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"sample_modulus\":1"), std::string::npos);

  const std::vector<double> t_in = values_of(json, "t_in_ps");
  const std::vector<double> t_out = values_of(json, "t_out_ps");
  ASSERT_GT(t_in.size(), 0u) << "sample=1 must record every hop";
  ASSERT_EQ(t_in.size(), t_out.size());
  for (std::size_t i = 0; i < t_in.size(); ++i) {
    EXPECT_GE(t_out[i], t_in[i]) << "postcard " << i;
  }
  for (const double q : values_of(json, "queue_b")) EXPECT_GE(q, 0.0);
  // No PFC in this scenario: every pause dwell is zero.
  for (const double d : values_of(json, "dwell_ps")) EXPECT_EQ(d, 0.0);
  // Cross-leaf flows see the 2-spine ECMP choice at the leaf.
  bool saw_multipath = false;
  std::size_t pos = 0;
  while ((pos = json.find("\"ecmp\":[2,", pos)) != std::string::npos) {
    saw_multipath = true;
    break;
  }
  EXPECT_TRUE(saw_multipath);
}

TEST_F(FlightFixture, TimelineEmitsASpanPerSampledFlowWithHopSlices) {
  run_cross_leaf_flows(1);

  const std::string json = timeline_json();
  // Four flows, all completing inside the run window: four flow spans, each
  // with at least one hop sub-slice underneath.
  std::size_t spans = 0;
  for (std::size_t pos = 0; (pos = json.find("\"name\":\"flow ", pos)) !=
                            std::string::npos;
       pos += 1) {
    ++spans;
  }
  // Each flow contributes a thread_name metadata record and an X span.
  EXPECT_EQ(spans, 8u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"fct_us\":"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"hop 0 "), std::string::npos);
  for (const double dur : values_of(json, "dur")) EXPECT_GE(dur, 0.0);
}

TEST_F(FlightFixture, ExportsAreByteIdenticalAcrossThreadCounts) {
  const auto snapshot = [&](std::size_t threads) {
    obs::reset();
    // Four independent task-local sims; the sweep engine scopes task i's
    // records to buffer i+1, so the export order is the grid order.
    par::parallel_for_each(
        4, [](std::size_t i) { run_cross_leaf_flows(i + 1); }, threads);
    return postcards_json() + timeline_json() + pausetree_json();
  };
  const std::string serial = snapshot(1);
  const std::string parallel = snapshot(4);
  EXPECT_GT(values_of(serial, "t_in_ps").size(), 0u);
  EXPECT_EQ(serial, parallel);
}

TEST_F(FlightFixture, PauseTreeExportRootsChainsAndNamesOffenders) {
  exp::PauseStormConfig config;
  config.fabric.kind = FabricConfig::Kind::kLeafSpine;
  config.fabric.spines = 2;
  config.fabric.leaves = 4;
  config.fabric.hosts_per_leaf = 4;
  config.fabric.fabric_link_rate = gbps(40.0);  // root at the victim leaf
  config.fabric.pfc.enabled = true;
  config.fabric.pfc.pause_threshold = kilobytes(64.0);
  config.fabric.pfc.resume_threshold = kilobytes(32.0);
  config.senders = 7;
  config.bytes_per_sender = kilobytes(512.0);
  config.duration_s = 0.005;
  config.seed = 5;
  const exp::PauseStormResult result = exp::run_pause_storm(config);
  ASSERT_GT(result.pause_frames, 0u) << "storm must actually pause";

  const std::string json = pausetree_json();
  EXPECT_NE(json.find("\"schema\":\"ecnd-flight-pausetree-v1\""),
            std::string::npos);
  const std::vector<double> depth = values_of(json, "depth");
  const std::vector<double> roots = values_of(json, "roots");
  ASSERT_EQ(depth.size(), 1u);  // single task (main thread)
  EXPECT_GE(depth[0], 2.0) << "pauses must chain beyond the first switch";
  EXPECT_GE(roots[0], 1.0);
  // Every node names the flow whose arrival crossed the threshold, and the
  // summary singles out a top offender.
  for (const double f : values_of(json, "trigger_flow")) EXPECT_GT(f, 0.0);
  EXPECT_GT(values_of(json, "flow").at(0), 0.0);
  EXPECT_GT(values_of(json, "pauses").at(0), 0.0);
  // The flight stream and the sim-layer causality agree on scale.
  const std::vector<double> ids = values_of(json, "id");
  EXPECT_EQ(ids.size(), result.reach.tree.size());
}

TEST_F(FlightFixture, PostcardBuffersKeepTheFirstRecordsAndCountDrops) {
  obs::set_flight_capacity(2);
  obs::reset();  // apply the shrunken capacity to fresh buffers
  {
    obs::TaskScope scope(3);
    for (std::uint32_t i = 0; i < 5; ++i) {
      obs::FlightHop hop;
      hop.flow_id = 100 + i;
      hop.seq = i;
      hop.port = "h0:nic";
      obs::flight_record_hop(hop);
    }
  }
  EXPECT_EQ(obs::flight_dropped_total(), 3u);

  const std::string json = postcards_json();
  EXPECT_NE(json.find("\"task\":3"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":3"), std::string::npos);
  EXPECT_NE(json.find("\"flow\":100"), std::string::npos);  // kept (first)
  EXPECT_NE(json.find("\"flow\":101"), std::string::npos);
  EXPECT_EQ(json.find("\"flow\":104"), std::string::npos);  // dropped (last)
}

TEST_F(FlightFixture, DisarmedRecorderCapturesNothing) {
  obs::set_flight_enabled(false);
  run_cross_leaf_flows(1);
  EXPECT_EQ(values_of(postcards_json(), "t_in_ps").size(), 0u);
  EXPECT_EQ(postcards_json().find("\"flow\":"), std::string::npos);
  EXPECT_EQ(timeline_json().find("\"ph\":\"X\""), std::string::npos);
}

TEST_F(FlightFixture, ArmingTheRecorderDoesNotPerturbTheSimulation) {
  // RED marking consumes the per-port RNG stream; the recorder computes the
  // marking probability into a local instead of re-sampling, so flow
  // completion times must be bit-identical armed vs idle.
  const auto fcts = [&](bool armed) {
    obs::set_flight_enabled(armed);
    obs::reset();
    Network net(7);
    FabricConfig config;
    config.kind = FabricConfig::Kind::kLeafSpine;
    config.spines = 2;
    config.leaves = 2;
    config.hosts_per_leaf = 2;
    config.red.enabled = true;
    config.red.kmin = kilobytes(4.0);
    config.red.kmax = kilobytes(32.0);
    config.red.pmax = 0.5;
    Fabric fabric = make_leaf_spine(net, config);
    std::vector<std::int64_t> out;
    // Completion fires on the receiver (arrival of the last data packet).
    fabric.hosts[3]->on_flow_complete = [&out](const FlowRecord& flow) {
      out.push_back(flow.fct());
    };
    for (int s = 0; s < 3; ++s) {
      Host* src = fabric.hosts[s];
      src->set_controller_factory(fixed_factory(gbps(8.0)));
      src->start_flow(fabric.hosts[3]->id(), kilobytes(64.0));
    }
    net.sim().run_until(seconds(0.02));
    return out;
  };
  const std::vector<std::int64_t> armed = fcts(true);
  const std::vector<std::int64_t> idle = fcts(false);
  ASSERT_GT(armed.size(), 0u);
  EXPECT_EQ(armed, idle);
}

}  // namespace
}  // namespace ecnd::sim
