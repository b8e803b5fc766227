#include <gtest/gtest.h>

#include "core/diagnostic.hpp"
#include "proto/factories.hpp"
#include "sim/network.hpp"

namespace ecnd::sim {
namespace {

/// A fixed-rate controller for plumbing tests.
class FixedRate final : public RateController {
 public:
  explicit FixedRate(BitsPerSecond rate, Bytes chunk = 1000, bool burst = false,
                     bool rtt = false)
      : rate_(rate), chunk_(chunk), burst_(burst), rtt_(rtt) {}
  BitsPerSecond rate() const override { return rate_; }
  Bytes chunk_bytes() const override { return chunk_; }
  bool burst_pacing() const override { return burst_; }
  bool wants_rtt() const override { return rtt_; }
  void on_rtt_sample(PicoTime rtt, PicoTime) override { rtts.push_back(rtt); }
  std::vector<PicoTime> rtts;

 private:
  BitsPerSecond rate_;
  Bytes chunk_;
  bool burst_, rtt_;
};

RateControllerFactory fixed_factory(BitsPerSecond rate, Bytes chunk = 1000,
                                    bool burst = false, bool rtt = false) {
  return [=](int) { return std::make_unique<FixedRate>(rate, chunk, burst, rtt); };
}

TEST(Network, StarRoutesEveryHost) {
  Network net(1);
  StarConfig config;
  config.senders = 3;
  Star star = make_star(net, config);
  for (Host* sender : star.senders) {
    EXPECT_TRUE(star.sw->has_route(sender->id()));
  }
  EXPECT_TRUE(star.sw->has_route(star.receiver->id()));
}

TEST(Network, DumbbellRoutesAcrossTrunk) {
  Network net(1);
  DumbbellConfig config;
  config.pairs = 4;
  Dumbbell d = make_dumbbell(net, config);
  // SW1 must route receivers through the trunk port.
  for (Host* receiver : d.receivers) {
    EXPECT_TRUE(d.sw1->has_route(receiver->id()));
  }
  EXPECT_EQ(d.senders.size(), 4u);
  EXPECT_EQ(d.receivers.size(), 4u);
}

// Both checks below used to be asserts, compiled out of the default
// (-DNDEBUG) build: an unrouted packet dereferenced routes_.end() and
// ingress accounting could silently go negative.
TEST(Switch, UnroutedDestinationThrowsNamingSwitchAndHost) {
  Network net(1);
  StarConfig config;
  config.senders = 1;
  Star star = make_star(net, config);
  Packet pkt;
  pkt.size = 1000;
  pkt.dst_host = 42;
  try {
    star.sw->receive(pkt, 0);
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& violation) {
    EXPECT_EQ(violation.diagnostic().component, "Switch " + star.sw->name());
    EXPECT_EQ(violation.diagnostic().variable, "route[42]");
    EXPECT_EQ(violation.diagnostic().value, 42.0);
  }
}

TEST(Switch, NegativeIngressAccountingThrowsNamingIngressPort) {
  Network net(1);
  StarConfig config;
  config.senders = 2;
  Star star = make_star(net, config);
  // A data packet tagged with an ingress it never entered through: its
  // departure debits bytes that were never credited.
  Packet pkt;
  pkt.size = 1000;
  pkt.ingress_port = 1;
  try {
    star.bottleneck().enqueue(pkt);
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& violation) {
    EXPECT_EQ(violation.diagnostic().component, "Switch " + star.sw->name());
    EXPECT_EQ(violation.diagnostic().variable, "ingress_bytes[1]");
    EXPECT_EQ(violation.diagnostic().value, -1000.0);
  }
}

TEST(Network, FlowDeliveryAndFctRecord) {
  Network net(1);
  StarConfig config;
  config.senders = 1;
  Star star = make_star(net, config);
  star.senders[0]->set_controller_factory(fixed_factory(gbps(10.0)));
  FlowRecord record;
  bool completed = false;
  star.receiver->on_flow_complete = [&](const FlowRecord& r) {
    record = r;
    completed = true;
  };
  star.senders[0]->start_flow(star.receiver->id(), 10'000);
  net.sim().run_until(seconds(0.01));
  ASSERT_TRUE(completed);
  EXPECT_EQ(record.size, 10'000);
  EXPECT_EQ(record.src_host, star.senders[0]->id());
  // 10 packets at line rate through 2 hops: FCT ~= 10 * 800ns + overhead.
  EXPECT_GT(record.fct(), microseconds(8.0));
  EXPECT_LT(record.fct(), microseconds(16.0));
  EXPECT_EQ(net.total_drops(), 0u);
}

TEST(Network, PacingRealizesConfiguredRate) {
  Network net(1);
  StarConfig config;
  config.senders = 1;
  Star star = make_star(net, config);
  star.senders[0]->set_controller_factory(fixed_factory(gbps(1.0)));
  star.senders[0]->start_flow(star.receiver->id(), megabytes(1.25));
  net.sim().run_until(seconds(0.009));
  // At 1 Gb/s, 9 ms moves ~1.125 MB; check within 5%.
  const double received = static_cast<double>(star.receiver->data_bytes_received());
  EXPECT_NEAR(received, 1.125e6, 0.06e6);
}

TEST(Network, TwoSendersShareViaQueueWhenUnpaced) {
  // Two line-rate senders into one 10G egress: the queue must absorb the
  // overload and both flows progress equally (FIFO fairness at packet level).
  Network net(1);
  StarConfig config;
  config.senders = 2;
  Star star = make_star(net, config);
  for (Host* s : star.senders) s->set_controller_factory(fixed_factory(gbps(10.0)));
  star.senders[0]->start_flow(star.receiver->id(), megabytes(10.0));
  star.senders[1]->start_flow(star.receiver->id(), megabytes(10.0));
  net.sim().run_until(seconds(0.005));
  EXPECT_GT(star.bottleneck().queued_bytes(), kilobytes(100.0));
}

TEST(Pfc, KeepsFabricDropFreeUnderOverload) {
  // Without PFC this 4-into-1 overload with a small buffer drops packets;
  // with PFC it must be lossless.
  for (bool pfc_on : {false, true}) {
    Network net(7);
    StarConfig config;
    config.senders = 4;
    config.pfc.enabled = pfc_on;
    config.pfc.pause_threshold = kilobytes(64.0);
    config.pfc.resume_threshold = kilobytes(32.0);
    Star star = make_star(net, config);
    // Bound the bottleneck buffer so the no-PFC case actually drops. PFC
    // needs headroom beyond the pause thresholds: frames already in flight
    // (serializing + propagating) still land after the PAUSE goes out.
    star.bottleneck().set_buffer_limit(kilobytes(512.0));
    for (Host* s : star.senders) s->set_controller_factory(fixed_factory(gbps(10.0)));
    for (Host* s : star.senders) s->start_flow(star.receiver->id(), megabytes(2.0));
    net.sim().run_until(seconds(0.02));
    if (pfc_on) {
      EXPECT_EQ(net.total_drops(), 0u) << "PFC fabric must be drop-free";
      EXPECT_GT(star.sw->pause_frames_sent(), 0u);
    } else {
      EXPECT_GT(net.total_drops(), 0u);
    }
  }
}

TEST(Pfc, IngressAccountingDrainsToZero) {
  Network net(3);
  StarConfig config;
  config.senders = 2;
  config.pfc.enabled = true;
  Star star = make_star(net, config);
  for (Host* s : star.senders) s->set_controller_factory(fixed_factory(gbps(10.0)));
  for (Host* s : star.senders) s->start_flow(star.receiver->id(), kilobytes(100.0));
  net.sim().run_until(seconds(0.01));
  for (int p = 0; p < star.sw->num_ports(); ++p) {
    EXPECT_EQ(star.sw->ingress_buffered(p), 0);
  }
}

TEST(Pfc, PauseBypassesFullReverseBuffer) {
  // Regression: PAUSE frames used to go through the normal enqueue path and
  // were tail-dropped when the reverse port's buffer limit was exhausted —
  // exactly the congested moment PFC exists for. enqueue_front() exempts
  // hop-local control frames from the buffer limit.
  Network net(7);
  StarConfig config;
  config.senders = 2;
  config.pfc.enabled = true;
  config.pfc.pause_threshold = kilobytes(8.0);
  config.pfc.resume_threshold = kilobytes(4.0);
  Star star = make_star(net, config);

  // Stuff the reverse port (switch -> sender 0) with a 256 KB data backlog,
  // then clamp its buffer below that: any tail enqueue would now be dropped.
  Port& reverse = star.sw->port(0);
  for (int i = 0; i < 256; ++i) {
    Packet filler;
    filler.type = PacketType::kData;
    filler.src_host = star.receiver->id();
    filler.dst_host = star.senders[0]->id();
    filler.flow_id = 0x7F000001;
    filler.size = 1000;
    reverse.enqueue(filler);
  }
  ASSERT_GE(reverse.queued_bytes(), kilobytes(250.0));
  reverse.set_buffer_limit(kilobytes(200.0));

  for (Host* s : star.senders) s->set_controller_factory(fixed_factory(gbps(10.0)));
  for (Host* s : star.senders) s->start_flow(star.receiver->id(), megabytes(2.0));
  while (net.sim().run_one() && !star.senders[0]->nic().paused() &&
         net.sim().now() < seconds(0.001)) {
  }
  EXPECT_TRUE(star.senders[0]->nic().paused())
      << "PAUSE must not be tail-dropped by the reverse port's buffer limit";
  // Strict control priority: the PAUSE overtakes the 256 KB data backlog
  // (~205 us of serialization) instead of draining behind it.
  EXPECT_LT(net.sim().now(), microseconds(100.0));
  EXPECT_GE(star.senders[0]->nic().pfc_pause_events(), 1u);
}

TEST(Pfc, PauseJumpsAheadOfQueuedControlTraffic) {
  // Regression: a PAUSE enqueued at the tail of the control queue waits
  // behind every ACK/CNP already buffered on the reverse port, delaying the
  // throttle by the whole control backlog. It must go to the head instead.
  Network net(7);
  StarConfig config;
  config.senders = 2;
  config.pfc.enabled = true;
  config.pfc.pause_threshold = kilobytes(8.0);
  config.pfc.resume_threshold = kilobytes(4.0);
  Star star = make_star(net, config);

  // 2000 stray ACKs = 128 KB (~102 us of wire time) ahead in the control
  // queue of the reverse port.
  Port& reverse = star.sw->port(0);
  for (int i = 0; i < 2000; ++i) {
    Packet ack;
    ack.type = PacketType::kAck;
    ack.src_host = star.receiver->id();
    ack.dst_host = star.senders[0]->id();
    ack.flow_id = 0x7F000002;
    ack.size = kControlPacketBytes;
    reverse.enqueue(ack);
  }

  for (Host* s : star.senders) s->set_controller_factory(fixed_factory(gbps(10.0)));
  for (Host* s : star.senders) s->start_flow(star.receiver->id(), megabytes(2.0));
  while (net.sim().run_one() && !star.senders[0]->nic().paused() &&
         net.sim().now() < seconds(0.001)) {
  }
  EXPECT_TRUE(star.senders[0]->nic().paused());
  // Ingress crosses 8 KB after ~13 us of 2-into-1 overload; head-of-queue
  // dispatch lands the PAUSE right after, far before the ACK backlog drains.
  EXPECT_LT(net.sim().now(), microseconds(50.0));
}

TEST(Host, CnpCoalescing) {
  // A receiver must emit at most one CNP per flow per cnp_interval no matter
  // how many marked packets arrive. Two line-rate senders keep a standing
  // queue at the bottleneck, so (kmin=0, kmax=1B) every departing packet is
  // marked.
  Network net(1);
  StarConfig config;
  config.senders = 2;
  config.red.enabled = true;
  config.red.kmin = 0;
  config.red.kmax = 1;
  config.red.pmax = 1.0;
  Star star = make_star(net, config);
  for (Host* s : star.senders) s->set_controller_factory(fixed_factory(gbps(10.0)));
  star.senders[0]->start_flow(star.receiver->id(), megabytes(1.25));
  star.senders[1]->start_flow(star.receiver->id(), megabytes(1.25));
  net.sim().run_until(seconds(0.002));
  // ~2 ms of marked arrivals on 2 flows with a 50 us per-flow CNP timer:
  // at most ~40 CNPs per flow; coalescing must keep it near that, far below
  // the ~2500 marked packets.
  EXPECT_GE(star.receiver->cnps_sent(), 40u);
  EXPECT_LE(star.receiver->cnps_sent(), 85u);
}

TEST(Host, AcksOnlyOnChunkBoundaries) {
  Network net(1);
  StarConfig config;
  config.senders = 1;
  Star star = make_star(net, config);
  star.senders[0]->set_controller_factory(
      fixed_factory(gbps(10.0), kilobytes(16.0), false, true));
  star.senders[0]->start_flow(star.receiver->id(), kilobytes(64.0));
  net.sim().run_until(seconds(0.01));
  EXPECT_EQ(star.receiver->acks_sent(), 4u);  // 64KB / 16KB
}

TEST(Host, RttSamplesReflectPathAndQueueing) {
  Network net(1);
  StarConfig config;
  config.senders = 1;
  config.sender_link_delay = microseconds(2.0);
  config.receiver_link_delay = microseconds(3.0);
  Star star = make_star(net, config);
  auto* raw = new FixedRate(gbps(1.0), kilobytes(16.0), false, true);
  star.senders[0]->set_controller_factory(
      [raw](int) { return std::unique_ptr<RateController>(raw); });
  // Keep the flow alive past the end of the run so `raw` stays owned by it.
  star.senders[0]->start_flow(star.receiver->id(), megabytes(10.0));
  net.sim().run_until(seconds(0.0005));
  ASSERT_GE(raw->rtts.size(), 2u);
  // Idle path RTT: data 2+3 us prop + 2x 800ns serialization + ack back
  // (5us prop + 2x ~51ns). Roughly 12-13 us; definitely < 20 us and > 10 us.
  EXPECT_GT(raw->rtts[0], microseconds(10.0));
  EXPECT_LT(raw->rtts[0], microseconds(20.0));
}

TEST(Host, BurstPacingEmitsChunksBackToBack) {
  Network net(1);
  StarConfig config;
  config.senders = 1;
  Star star = make_star(net, config);
  star.senders[0]->set_controller_factory(
      fixed_factory(gbps(1.0), kilobytes(16.0), /*burst=*/true));
  star.senders[0]->start_flow(star.receiver->id(), kilobytes(16.0));
  // Immediately after starting, the whole 16KB chunk must sit in the NIC.
  EXPECT_EQ(star.senders[0]->nic().queued_bytes() +
                1000 /* first packet already serializing */,
            kilobytes(16.0));
  net.sim().run_until(seconds(0.01));
  EXPECT_EQ(star.receiver->data_bytes_received(), 16000u);
}

}  // namespace
}  // namespace ecnd::sim
