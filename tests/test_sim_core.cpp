#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace ecnd::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(300, [&] { order.push_back(3); });
  sim.schedule_at(100, [&] { order.push_back(1); });
  sim.schedule_at(200, [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300);
}

TEST(Simulator, TiesBreakFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) sim.schedule_at(50, [&order, i] { order.push_back(i); });
  sim.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(100, [&] { ++fired; });
  sim.schedule_at(200, [&] { ++fired; });
  sim.run_until(150);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 150);
  sim.run_until(250);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) sim.schedule_in(10, chain);
  };
  sim.schedule_at(0, chain);
  sim.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 40);
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(Units, SerializationTimeMath) {
  // 1000B at 10 Gb/s = 800 ns.
  EXPECT_EQ(serialization_time(1000, gbps(10.0)), nanoseconds(800.0));
  // 64B at 10 Gb/s = 51.2 ns.
  EXPECT_EQ(serialization_time(64, gbps(10.0)), static_cast<PicoTime>(51200));
}

class Sink final : public Node {
 public:
  Sink() : Node("sink", 0) {}
  void receive(Packet pkt, int) override {
    arrivals.push_back(pkt);
    times.push_back(last_now ? *last_now : 0);
  }
  std::vector<Packet> arrivals;
  std::vector<PicoTime> times;
  const PicoTime* last_now = nullptr;
};

TEST(Port, DeliversAfterSerializationPlusPropagation) {
  Simulator sim;
  Rng rng(1);
  Sink sink;
  PicoTime now_snapshot = 0;
  sink.last_now = &now_snapshot;
  Port port(sim, rng, "p", gbps(10.0), microseconds(5.0));
  port.connect(&sink, 0);
  Packet pkt;
  pkt.size = 1000;
  port.enqueue(pkt);
  sim.schedule_at(0, [] {});
  while (sim.run_one()) now_snapshot = sim.now();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  // 800ns serialization + 5us propagation.
  EXPECT_EQ(sim.now(), nanoseconds(800.0) + microseconds(5.0));
}

TEST(Port, BackToBackPacketsSerializeSequentially) {
  Simulator sim;
  Rng rng(1);
  Sink sink;
  Port port(sim, rng, "p", gbps(10.0), 0);
  port.connect(&sink, 0);
  for (int i = 0; i < 3; ++i) {
    Packet pkt;
    pkt.size = 1000;
    pkt.seq = static_cast<std::uint32_t>(i);
    port.enqueue(pkt);
  }
  EXPECT_EQ(port.queued_bytes(), 2000);  // one in flight, two queued
  sim.run_all();
  EXPECT_EQ(sink.arrivals.size(), 3u);
  EXPECT_EQ(sim.now(), 3 * nanoseconds(800.0));
  EXPECT_EQ(port.tx_bytes(), 3000u);
}

TEST(Port, ControlPriorityPreemptsDataQueue) {
  Simulator sim;
  Rng rng(1);
  Sink sink;
  Port port(sim, rng, "p", gbps(10.0), 0);
  port.connect(&sink, 0);
  Packet data;
  data.size = 1000;
  port.enqueue(data);  // starts transmitting immediately
  port.enqueue(data);  // queued
  Packet cnp;
  cnp.type = PacketType::kCnp;
  cnp.size = 64;
  port.enqueue(cnp);  // control must jump ahead of the queued data packet
  sim.run_all();
  ASSERT_EQ(sink.arrivals.size(), 3u);
  EXPECT_EQ(sink.arrivals[1].type, PacketType::kCnp);
  EXPECT_EQ(sink.arrivals[2].type, PacketType::kData);
}

TEST(Port, PfcPausesDataButNotControl) {
  Simulator sim;
  Rng rng(1);
  Sink sink;
  Port port(sim, rng, "p", gbps(10.0), 0);
  port.connect(&sink, 0);
  port.pfc_pause();
  Packet data;
  data.size = 1000;
  port.enqueue(data);
  Packet ack;
  ack.type = PacketType::kAck;
  ack.size = 64;
  port.enqueue(ack);
  sim.run_all();
  ASSERT_EQ(sink.arrivals.size(), 1u);  // only the ACK went out
  EXPECT_EQ(sink.arrivals[0].type, PacketType::kAck);
  EXPECT_EQ(port.queued_bytes(kDataPriority), 1000);
  port.pfc_resume();
  sim.run_all();
  EXPECT_EQ(sink.arrivals.size(), 2u);
}

TEST(Port, BufferLimitTailDrops) {
  Simulator sim;
  Rng rng(1);
  Sink sink;
  Port port(sim, rng, "p", mbps(1.0), 0);  // slow: queue builds
  port.connect(&sink, 0);
  port.set_buffer_limit(2500);
  Packet pkt;
  pkt.size = 1000;
  for (int i = 0; i < 5; ++i) port.enqueue(pkt);
  EXPECT_EQ(port.drops(), 2u);  // first transmits, two queue, rest dropped
}

TEST(Port, DequeueMarkingReflectsRemainingBacklog) {
  Simulator sim;
  Rng rng(1);
  Sink sink;
  Port port(sim, rng, "p", gbps(10.0), 0);
  port.connect(&sink, 0);
  RedConfig red;
  red.enabled = true;
  red.kmin = 0;
  red.kmax = 10000;
  red.pmax = 1.0;
  red.position = MarkPosition::kDequeue;
  port.set_red(red);
  // 12 packets: each sees the backlog behind it; with kmin=0 and pmax=1 the
  // marking probability is backlog/10000 -> later packets nearly never
  // marked (backlog shrinks), earliest ones likely marked.
  Packet pkt;
  pkt.size = 1000;
  for (int i = 0; i < 12; ++i) port.enqueue(pkt);
  sim.run_all();
  int marked = 0;
  for (const auto& p : sink.arrivals) marked += p.ecn_marked;
  EXPECT_GT(marked, 0);
  EXPECT_LT(marked, 12);
  // The very last packet departs with an empty queue: never marked.
  EXPECT_FALSE(sink.arrivals.back().ecn_marked);
}

TEST(Port, EnqueueMarkingUsesArrivalBacklog) {
  Simulator sim;
  Rng rng(1);
  Sink sink;
  Port port(sim, rng, "p", gbps(10.0), 0);
  port.connect(&sink, 0);
  RedConfig red;
  red.enabled = true;
  red.kmin = 1500;
  red.kmax = 3000;
  red.pmax = 1.0;
  red.linear_extension = true;
  red.position = MarkPosition::kEnqueue;
  port.set_red(red);
  Packet pkt;
  pkt.size = 1000;
  for (int i = 0; i < 10; ++i) port.enqueue(pkt);
  sim.run_all();
  // The first packets saw backlog < kmin: unmarked; late arrivals saw more.
  EXPECT_FALSE(sink.arrivals[0].ecn_marked);
  int marked = 0;
  for (const auto& p : sink.arrivals) marked += p.ecn_marked;
  EXPECT_GT(marked, 2);
}

TEST(Port, WireTimestampingRestampsData) {
  Simulator sim;
  Rng rng(1);
  Sink sink;
  Port port(sim, rng, "p", gbps(10.0), 0);
  port.connect(&sink, 0);
  port.set_wire_timestamping(true);
  Packet a, b;
  a.size = b.size = 1000;
  a.sent_at = b.sent_at = 0;
  port.enqueue(a);
  port.enqueue(b);
  sim.run_all();
  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(sink.arrivals[0].sent_at, 0);
  // Second packet hit the wire after the first finished serializing.
  EXPECT_EQ(sink.arrivals[1].sent_at, nanoseconds(800.0));
}

// ---------------------------------------------------------------------------
// Transmit-complete events are queued only when a packet is waiting for the
// wire. These pin the tie order at the completion key to what an
// always-scheduled completion event gave: the same departure times and the
// same order of draws from the shared RNG, with only the no-op completions
// gone from the event count.

/// Records each arrival with the sim time it landed.
class Recorder final : public Node {
 public:
  explicit Recorder(const Simulator& sim) : Node("rec", 0), sim_(sim) {}
  void receive(Packet pkt, int) override {
    arrivals.push_back({sim_.now(), pkt});
  }
  struct Arrival {
    PicoTime at;
    Packet pkt;
  };
  std::vector<Arrival> arrivals;

 private:
  const Simulator& sim_;
};

constexpr PicoTime kMtuTx = 800'000;  // 1000 B at 10 Gb/s
constexpr PicoTime kCtlTx = 51'200;   // 64 B at 10 Gb/s

Packet data_packet(std::uint32_t seq) {
  Packet pkt;
  pkt.size = 1000;
  pkt.seq = seq;
  return pkt;
}

Packet control_packet(PacketType type) {
  Packet pkt;
  pkt.type = type;
  pkt.size = kControlPacketBytes;
  return pkt;
}

/// 10G port onto a zero-delay link (an arrival shares its completion's
/// timestamp: the tightest tie), wire timestamps (a data packet's sent_at
/// is its departure time), and dequeue RED with kmin = 0, so every data
/// departure draws exactly one uniform from the shared RNG.
struct TxPort {
  Simulator sim;
  Rng rng{7};
  Recorder sink{sim};
  Port port{sim, rng, "p", gbps(10.0), 0};

  TxPort() {
    port.connect(&sink, 0);
    port.set_wire_timestamping(true);
    RedConfig red;
    red.enabled = true;
    red.kmin = 0;
    red.kmax = 100'000;
    red.pmax = 1.0;
    port.set_red(red);
  }

  /// The n-th (1-based) uniform a fresh twin of the shared RNG yields.
  static double nth_draw(int n) {
    Rng twin(7);
    double u = 0.0;
    for (int i = 0; i < n; ++i) u = twin.uniform();
    return u;
  }
};

/// What an event right behind the wake-up saw at the completion time.
struct Probe {
  Bytes queued = -1;
  double draw = -1.0;
};

TEST(PortTxDone, LonePacketOnIdlePortDispatchesOnlyItsArrival) {
  TxPort f;
  f.port.enqueue(data_packet(0));
  f.sim.run_all();
  EXPECT_EQ(f.sim.events_processed(), 1u);
  ASSERT_EQ(f.sink.arrivals.size(), 1u);
  EXPECT_EQ(f.sink.arrivals[0].at, kMtuTx);
  EXPECT_EQ(f.sim.now(), kMtuTx);
}

TEST(PortTxDone, BurstDispatchesArrivalsPlusOneCompletionPerFollower) {
  TxPort f;
  constexpr int kBurst = 8;
  for (int i = 0; i < kBurst; ++i) f.port.enqueue(data_packet(i));
  f.sim.run_all();
  EXPECT_EQ(f.sim.events_processed(), 2u * kBurst - 1);
  ASSERT_EQ(f.sink.arrivals.size(), static_cast<std::size_t>(kBurst));
  for (int i = 0; i < kBurst; ++i) {
    const auto& a = f.sink.arrivals[static_cast<std::size_t>(i)];
    EXPECT_EQ(a.pkt.seq, static_cast<std::uint32_t>(i));
    EXPECT_EQ(a.pkt.sent_at, i * kMtuTx);
    EXPECT_EQ(a.at, (i + 1) * kMtuTx);
  }
  EXPECT_EQ(f.sim.now(), kBurst * kMtuTx);
}

// An event at exactly T = busy_until that was scheduled *before* the
// completion key was reserved runs while the wire is still busy: its packet
// waits for the completion, so the probe behind it sees it queued and takes
// the second draw (the packet takes the third when it departs at T).
TEST(PortTxDone, EnqueueAtBusyUntilBeforeReservedKeyWaitsForCompletion) {
  TxPort f;
  Probe probe;
  f.sim.schedule_at(kMtuTx, [&] { f.port.enqueue(data_packet(1)); });
  f.sim.schedule_at(kMtuTx, [&] {
    probe.queued = f.port.queued_bytes();
    probe.draw = f.rng.uniform();
  });
  f.port.enqueue(data_packet(0));  // reserves (T, 2)
  f.sim.run_all();
  EXPECT_EQ(probe.queued, 1000);
  EXPECT_EQ(probe.draw, TxPort::nth_draw(2));
  ASSERT_EQ(f.sink.arrivals.size(), 2u);
  EXPECT_EQ(f.sink.arrivals[1].pkt.sent_at, kMtuTx);
  EXPECT_EQ(f.sink.arrivals[1].at, 2 * kMtuTx);
  // enqueue, probe, completion (a packet was waiting), two arrivals.
  EXPECT_EQ(f.sim.events_processed(), 5u);
}

// Scheduled *after* the reservation, the same event finds the completion
// already passed: the packet departs inside it, ahead of the probe's draw.
TEST(PortTxDone, EnqueueAtBusyUntilAfterReservedKeyDepartsImmediately) {
  TxPort f;
  Probe probe;
  f.port.enqueue(data_packet(0));  // reserves (T, 0)
  f.sim.schedule_at(kMtuTx, [&] { f.port.enqueue(data_packet(1)); });
  f.sim.schedule_at(kMtuTx, [&] {
    probe.queued = f.port.queued_bytes();
    probe.draw = f.rng.uniform();
  });
  f.sim.run_all();
  EXPECT_EQ(probe.queued, 0);
  EXPECT_EQ(probe.draw, TxPort::nth_draw(3));
  ASSERT_EQ(f.sink.arrivals.size(), 2u);
  EXPECT_EQ(f.sink.arrivals[1].pkt.sent_at, kMtuTx);
  // No completion event at all: the first one was elided, the second had
  // nothing behind it.
  EXPECT_EQ(f.sim.events_processed(), 4u);
}

TEST(PortTxDone, PfcResumeMidSerializationReleasesDataAtCompletion) {
  TxPort f;
  f.port.pfc_pause();
  f.port.enqueue(data_packet(0));                     // held by the pause
  f.port.enqueue(control_packet(PacketType::kAck));  // on the wire until kCtlTx
  f.sim.schedule_at(kCtlTx / 2, [&] { f.port.pfc_resume(); });
  f.sim.run_all();
  ASSERT_EQ(f.sink.arrivals.size(), 2u);
  EXPECT_EQ(f.sink.arrivals[0].pkt.type, PacketType::kAck);
  EXPECT_EQ(f.sink.arrivals[1].pkt.sent_at, kCtlTx);
  EXPECT_EQ(f.sink.arrivals[1].at, kCtlTx + kMtuTx);
  // resume, completion, two arrivals.
  EXPECT_EQ(f.sim.events_processed(), 4u);
}

TEST(PortTxDone, PfcResumeAtBusyUntilKeepsItsTieOrder) {
  for (const bool before_key : {true, false}) {
    SCOPED_TRACE(before_key ? "resume scheduled before the reserved key"
                            : "resume scheduled after the reserved key");
    TxPort f;
    Probe probe;
    auto resume = [&] { f.port.pfc_resume(); };
    auto look = [&] {
      probe.queued = f.port.queued_bytes();
      probe.draw = f.rng.uniform();
    };
    f.port.pfc_pause();
    f.port.enqueue(data_packet(0));
    if (before_key) {
      f.sim.schedule_at(kCtlTx, resume);
      f.sim.schedule_at(kCtlTx, look);
      f.port.enqueue(control_packet(PacketType::kAck));
    } else {
      f.port.enqueue(control_packet(PacketType::kAck));
      f.sim.schedule_at(kCtlTx, resume);
      f.sim.schedule_at(kCtlTx, look);
    }
    f.sim.run_all();
    // Before the key the data packet still waits behind the busy wire when
    // the probe looks; after it, it has already left (taking draw 1).
    EXPECT_EQ(probe.queued, before_key ? 1000 : 0);
    EXPECT_EQ(probe.draw, TxPort::nth_draw(before_key ? 1 : 2));
    ASSERT_EQ(f.sink.arrivals.size(), 2u);
    EXPECT_EQ(f.sink.arrivals[1].pkt.sent_at, kCtlTx);
  }
}

TEST(PortTxDone, EnqueueFrontMidSerializationJumpsQueuedData) {
  TxPort f;
  f.port.enqueue(data_packet(0));  // on the wire until kMtuTx
  f.port.enqueue(data_packet(1));  // waiting: the completion is queued
  f.sim.schedule_at(kMtuTx / 2, [&] {
    f.port.enqueue_front(control_packet(PacketType::kPause));
  });
  f.sim.run_all();
  ASSERT_EQ(f.sink.arrivals.size(), 3u);
  EXPECT_EQ(f.sink.arrivals[1].pkt.type, PacketType::kPause);
  EXPECT_EQ(f.sink.arrivals[1].at, kMtuTx + kCtlTx);
  EXPECT_EQ(f.sink.arrivals[2].pkt.sent_at, kMtuTx + kCtlTx);
  // enqueue_front, two completions, three arrivals.
  EXPECT_EQ(f.sim.events_processed(), 6u);
}

TEST(PortTxDone, EnqueueFrontAtBusyUntilKeepsItsTieOrder) {
  for (const bool before_key : {true, false}) {
    SCOPED_TRACE(before_key ? "frame queued before the reserved key"
                            : "frame queued after the reserved key");
    TxPort f;
    Probe probe;
    auto pause_frame = [&] {
      f.port.enqueue_front(control_packet(PacketType::kPause));
    };
    auto look = [&] {
      probe.queued = f.port.queued_bytes();
      probe.draw = f.rng.uniform();
    };
    if (before_key) {
      f.sim.schedule_at(kMtuTx, pause_frame);
      f.sim.schedule_at(kMtuTx, look);
      f.port.enqueue(data_packet(0));
    } else {
      f.port.enqueue(data_packet(0));
      f.sim.schedule_at(kMtuTx, pause_frame);
      f.sim.schedule_at(kMtuTx, look);
    }
    f.sim.run_all();
    EXPECT_EQ(probe.queued, before_key ? kControlPacketBytes : 0);
    EXPECT_EQ(probe.draw, TxPort::nth_draw(2));
    ASSERT_EQ(f.sink.arrivals.size(), 2u);
    EXPECT_EQ(f.sink.arrivals[1].at, kMtuTx + kCtlTx);
  }
}

TEST(PortTxDone, RunUntilAndRunAllLeaveTheClockWhereTheyDid) {
  {
    // run_until stops mid-serialization: the wire stays busy across runs.
    TxPort f;
    f.port.enqueue(data_packet(0));
    f.sim.run_until(kMtuTx / 2);
    EXPECT_EQ(f.sim.now(), kMtuTx / 2);
    f.port.enqueue(data_packet(1));
    EXPECT_EQ(f.port.queued_bytes(), 1000);
    f.sim.run_all();
    ASSERT_EQ(f.sink.arrivals.size(), 2u);
    EXPECT_EQ(f.sink.arrivals[1].pkt.sent_at, kMtuTx);
  }
  {
    // A run_until horizon at exactly busy_until passes the completion key,
    // even though no event runs at or after it (the arrival is 1 us out).
    Simulator sim;
    Rng rng(7);
    Recorder sink(sim);
    Port port(sim, rng, "p", gbps(10.0), microseconds(1.0));
    port.connect(&sink, 0);
    port.set_wire_timestamping(true);
    port.enqueue(data_packet(0));
    sim.run_until(kMtuTx);
    EXPECT_EQ(sim.now(), kMtuTx);
    EXPECT_EQ(sim.events_processed(), 0u);
    port.enqueue(data_packet(1));
    EXPECT_EQ(port.queued_bytes(), 0);  // departed at once
    sim.run_all();
    ASSERT_EQ(sink.arrivals.size(), 2u);
    EXPECT_EQ(sink.arrivals[1].pkt.sent_at, kMtuTx);
  }
  {
    // The wire loses the last packet: no arrival is queued, but the run
    // still ends at its completion time, as the no-op event used to make it.
    TxPort f;
    f.port.set_fault_hook([](const Packet&, PicoTime) {
      FaultAction drop;
      drop.drop = true;
      return drop;
    });
    f.port.enqueue(data_packet(0));
    f.port.enqueue(data_packet(1));
    f.sim.run_all();
    EXPECT_EQ(f.sim.now(), 2 * kMtuTx);
    EXPECT_TRUE(f.sink.arrivals.empty());
    EXPECT_EQ(f.sim.events_processed(), 1u);  // the one completion with work
    EXPECT_FALSE(f.sim.run_one());
    EXPECT_EQ(f.sim.now(), 2 * kMtuTx);
  }
}

TEST(Simulator, PastScheduleClampsToNowAndIsCounted) {
  Simulator sim;
  PicoTime ran_at = -1;
  sim.schedule_at(100, [&] {
    // A target time computed from a stale rate register can land in the
    // past; it must run "now" instead of corrupting event order.
    sim.schedule_at(40, [&] { ran_at = sim.now(); });
  });
  sim.run_all();
  EXPECT_EQ(ran_at, 100);
  EXPECT_EQ(sim.now(), 100);
  EXPECT_EQ(sim.late_schedules(), 1u);
}

TEST(Simulator, ClampedEventKeepsFifoOrderAmongSameTimeEvents) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(100, [&] {
    order.push_back(1);
    sim.schedule_at(50, [&] { order.push_back(3); });  // clamped to t=100
  });
  sim.schedule_at(100, [&] { order.push_back(2); });
  sim.run_all();
  // The clamped event was scheduled last, so it runs after the pre-existing
  // t=100 event (FIFO tie-break), never before already-dispatched work.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.late_schedules(), 1u);
}

TEST(Simulator, FutureSchedulesAreNotCountedLate) {
  Simulator sim;
  sim.schedule_at(10, [] {});
  sim.schedule_at(10, [] {});  // same-time is on time, not late
  sim.run_all();
  EXPECT_EQ(sim.late_schedules(), 0u);
}

// ---------------------------------------------------------------------------
// Pooled event arena: action lifetimes, recycling, and oversized fallbacks.

/// Counts live copies so tests can observe action construction/destruction.
struct LifeTracker {
  explicit LifeTracker(int* live) : live(live) { ++*live; }
  LifeTracker(const LifeTracker& o) : live(o.live) { ++*live; }
  LifeTracker(LifeTracker&& o) noexcept : live(o.live) { ++*live; }
  ~LifeTracker() { --*live; }
  int* live;
};

TEST(EventPool, ActionsAreDestroyedAfterDispatch) {
  Simulator sim;
  int live = 0;
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    sim.schedule_at(i, [&fired, tracker = LifeTracker(&live)] { ++fired; });
  }
  EXPECT_GT(live, 0);
  sim.run_all();
  EXPECT_EQ(fired, 100);
  EXPECT_EQ(live, 0);  // every capture destroyed once its event dispatched
}

TEST(EventPool, PendingActionsAreDestroyedWithTheSimulator) {
  int live = 0;
  {
    Simulator sim;
    for (int i = 0; i < 10; ++i) {
      sim.schedule_at(1000 + i, [tracker = LifeTracker(&live)] {});
    }
    sim.run_until(10);  // none dispatched
    EXPECT_EQ(live, 10);
  }
  EXPECT_EQ(live, 0);  // destructor drains the queue and destroys captures
}

TEST(EventPool, ThrowingActionStillRecyclesItsSlot) {
  Simulator sim;
  int live = 0;
  bool after_ran = false;
  sim.schedule_at(1, [tracker = LifeTracker(&live)] {
    throw std::runtime_error("mid-run failure");
  });
  sim.schedule_at(2, [&after_ran] { after_ran = true; });
  EXPECT_THROW(sim.run_all(), std::runtime_error);
  EXPECT_EQ(live, 0);  // the throwing action's capture was destroyed
  sim.run_all();       // the simulator remains usable
  EXPECT_TRUE(after_ran);
}

TEST(EventPool, OversizedCapturesFallBackToHeapAndStillRun) {
  // Larger than the 64-byte inline slot buffer: exercises the heap path.
  struct Big {
    double payload[32];
  };
  Simulator sim;
  Big big{};
  big.payload[0] = 1.0;
  big.payload[31] = 2.0;
  double sum = 0.0;
  int live = 0;
  sim.schedule_at(5, [big, tracker = LifeTracker(&live), &sum] {
    sum = big.payload[0] + big.payload[31];
  });
  sim.run_all();
  EXPECT_DOUBLE_EQ(sum, 3.0);
  EXPECT_EQ(live, 0);
}

TEST(EventPool, SteadyStateChurnKeepsPendingBounded) {
  // A self-rescheduling chain dispatches 100k events through what should be
  // a handful of recycled slots; pending never exceeds the live event count.
  Simulator sim;
  int remaining = 100000;
  std::function<void()> pump = [&] {
    if (--remaining > 0) sim.schedule_in(1, pump);
  };
  sim.schedule_at(0, pump);
  sim.run_all();
  EXPECT_EQ(remaining, 0);
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_EQ(sim.events_processed(), 100000u);
}

TEST(EventPool, PoolReuseMetricCountsFreeListHandouts) {
#if !defined(ECND_OBS_DISABLED)
  // sim.event_pool_reuse counts slots served from the free list. A slot is
  // released only after its action returns, so an action's own follow-up
  // takes the previously released slot (or a fresh one if none is free).
  obs::set_metrics_enabled(true);
  obs::reset();
  const auto reuse = [] {
    std::ostringstream out;
    obs::dump_metrics_json(out);
    const std::string dump = out.str();
    const std::string key = "\"sim.event_pool_reuse\": ";
    const std::size_t at = dump.find(key);
    EXPECT_NE(at, std::string::npos);
    return std::stoull(dump.substr(at + key.size()));
  };
  {
    Simulator sim;
    int follow_ups = 6;
    std::function<void()> fire = [&] {
      if (follow_ups-- > 0) sim.schedule_in(100, fire);
    };
    for (PicoTime t : {0, 10, 20}) sim.schedule_at(t, fire);
    sim.run_all();
    // Slots 0-2 and the first follow-up's slot 3 are fresh; the other five
    // follow-ups reuse the slot the previous dispatch released.
    EXPECT_EQ(sim.events_processed(), 9u);
    EXPECT_EQ(reuse(), 5u);
    // Four slots are free now: later schedules never grow the arena.
    sim.schedule_in(1, [] {});
    sim.schedule_in(2, [] {});
    EXPECT_EQ(reuse(), 7u);
  }
  obs::set_metrics_enabled(false);
  obs::reset();
#else
  GTEST_SKIP() << "observability compiled out (ECND_OBS=OFF)";
#endif
}

}  // namespace
}  // namespace ecnd::sim
