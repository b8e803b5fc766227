#pragma once
// An egress port: per-priority FIFO queues, a transmitter that serializes
// packets onto a point-to-point link, RED/ECN marking (paper Equation 3) at
// a configurable position, and PFC pause state.
//
// The marking position is the paper's §5.2 "ECN marking is done on packet
// egress" argument made concrete:
//   * kDequeue (default, what Broadcom-style shared-buffer switches do): the
//     departing packet is marked according to the queue length *at departure*
//     — the congestion signal's age is independent of the queueing delay.
//   * kEnqueue ("marking on ingress", Figure 17): the packet is marked
//     according to the queue at *arrival* and then waits through the queue,
//     so the signal ages by the queueing delay before it even leaves.

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "core/rng.hpp"
#include "core/units.hpp"
#include "sim/packet.hpp"
#include "sim/simulator.hpp"

namespace ecnd::sim {

class Node;

enum class MarkPosition : std::uint8_t { kDequeue, kEnqueue };

/// RED/ECN profile (Equation 3).
struct RedConfig {
  bool enabled = false;
  Bytes kmin = kilobytes(40.0);
  Bytes kmax = kilobytes(200.0);
  double pmax = 0.01;
  MarkPosition position = MarkPosition::kDequeue;
  /// See DcqcnFluidParams::red_linear_extension; false = Equation 3 verbatim.
  bool linear_extension = false;
};

/// PIE-style PI controller marking (paper §5.2 / Equation 32 and §7 future
/// work): instead of RED's static profile, the marking probability is a
/// periodically-updated controller state
///     p += gain_integral * dt * (q - qref) + gain_proportional * (q - q_prev)
/// (queue in packets), which drives the queue error to zero — a fixed queue
/// for any number of flows. Marking happens at dequeue with probability p.
/// Overrides RED when enabled.
struct PiAqmConfig {
  bool enabled = false;
  Bytes qref = kilobytes(50.0);
  double gain_integral = 0.004;     ///< per packet of error, per second
  double gain_proportional = 4e-5;  ///< per packet of queue change
  PicoTime update_interval = microseconds(20.0);
  double mtu_bytes = 1000.0;        ///< packet-unit conversion for the gains
};

/// What a fault hook may do to a packet that just finished serializing:
/// lose it on the wire, deliver extra copies, hold it back (delaying one
/// packet past its successors reorders the stream), or corrupt its ECN bit.
struct FaultAction {
  bool drop = false;
  int duplicates = 0;       ///< extra copies delivered alongside the original
  PicoTime extra_delay = 0; ///< added to propagation for packet and copies
  bool flip_ecn = false;    ///< toggle the CE codepoint (mis-marking)
};

/// Consulted once per transmitted packet, after marking/timestamping and
/// counter updates — the packet *was* sent; the fault happens on the wire.
/// `now` is the transmit time (link-flap windows are time-based).
using FaultHook = std::function<FaultAction(const Packet&, PicoTime now)>;

class Port {
 public:
  /// `rate` and `propagation` describe the attached link direction this port
  /// transmits onto.
  Port(Simulator& sim, Rng& rng, std::string name, BitsPerSecond rate,
       PicoTime propagation);

  void connect(Node* peer, int peer_ingress_port);
  void set_red(const RedConfig& red) { red_ = red; }
  /// Enable PI-controller marking (starts the periodic controller updates).
  void set_pi_aqm(const PiAqmConfig& pi);
  /// Current PI marking probability (0 when PI is disabled).
  double pi_marking_probability() const { return pi_p_; }
  /// Host NICs re-stamp each data packet's tx timestamp when it actually
  /// reaches the wire, so RTT samples exclude the sender's own queueing
  /// (TIMELY measures from NIC hardware timestamps and discounts segment
  /// serialization; without this, 64KB bursts would self-inflate every RTT
  /// sample by their own serialization time).
  void set_wire_timestamping(bool on) { wire_timestamping_ = on; }
  /// Maximum bytes queued across priorities before tail drop (0 = unbounded).
  void set_buffer_limit(Bytes limit) { buffer_limit_ = limit; }
  /// Install a wire-fault hook (see FaultHook); empty hook removes it.
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

  const std::string& name() const { return name_; }
  BitsPerSecond rate() const { return rate_; }
  PicoTime propagation() const { return propagation_; }
  bool connected() const { return peer_ != nullptr; }

  /// Queue a packet for transmission. May tail-drop if over the limit.
  void enqueue(Packet pkt);

  /// Queue a control frame at the *head* of the control queue, exempt from
  /// the buffer limit. PFC pause/resume frames go through here: a pause must
  /// not wait behind queued ACKs/CNPs (its latency would then depend on the
  /// very congestion it is trying to stop), and tail-dropping one would break
  /// losslessness outright. Only the in-flight serialization still delays it.
  void enqueue_front(Packet pkt);

  /// PFC: pause / resume the data priority (control is never paused).
  /// `pause_id` identifies the PAUSE frame that paused us (the frame's
  /// flow_id field; see Switch::send_pfc) — the pause-causality layer reads
  /// it back via paused_by() when this port's backpressure triggers a
  /// further upstream pause. 0 = unattributed (tests, legacy callers).
  void pfc_pause(std::uint64_t pause_id = 0);
  void pfc_resume();
  bool paused() const { return paused_; }
  /// The pause event currently blocking the data priority (0 when none).
  std::uint64_t paused_by() const { return paused_by_; }
  /// Cumulative sim time the data priority has spent paused, up to `now`.
  /// Postcards difference this across a packet's queueing to get its
  /// pause-blocked dwell.
  PicoTime paused_ps_total(PicoTime now) const {
    return paused_accum_ps_ + (paused_ ? now - paused_since_ps_ : 0);
  }
  /// Unpaused->paused transitions over the port's lifetime ("was this NIC
  /// ever paused" for pause-storm reach accounting).
  std::uint64_t pfc_pause_events() const { return pfc_pause_events_; }

  /// Flight recorder: stage the ECMP decision for the packet about to be
  /// enqueued (consumed by the next enqueue; reset to the single-path
  /// default afterwards). Only called when obs::flight_enabled().
  void flight_stage_ecmp(std::uint16_t candidates, std::uint16_t choice) {
    flight_ecmp_candidates_ = candidates;
    flight_ecmp_choice_ = choice;
  }

  Bytes queued_bytes() const { return queued_bytes_[0] + queued_bytes_[1]; }
  Bytes queued_bytes(int priority) const { return queued_bytes_[priority]; }
  /// High-watermark of total queued bytes over the port's lifetime (per-port,
  /// unlike the process-global sim.queue_bytes_max gauge, so parallel sweep
  /// cells can each report their own victim-queue peak).
  Bytes peak_queued_bytes() const { return peak_queued_bytes_; }
  std::uint64_t drops() const { return drops_; }
  std::uint64_t tx_packets() const { return tx_packets_; }
  std::uint64_t tx_bytes() const { return tx_bytes_; }
  std::uint64_t marked_packets() const { return marked_packets_; }

  /// Invoked when a data packet leaves the queue (PFC shared-buffer
  /// accounting hook for the owning switch).
  std::function<void(const Packet&)> on_dequeue;

 private:
  void try_transmit();
  /// Priority of the packet the transmitter would send next (-1: none).
  int next_priority() const;
  /// Queue the transmit-complete event under its reserved key (once).
  void wake_at_tx_done();
  /// RED marking probability for the given backlog (Equation 3).
  double marking_probability(Bytes queue) const;
  /// serialization_time(bytes, rate_) behind a two-entry memo: traffic is
  /// almost entirely {MTU data, 64B control}, and the divide + llround per
  /// transmit shows up in the event-loop profile. Same rounding, same result.
  PicoTime serialization_ps(Bytes bytes) {
    if (bytes == ser_memo_bytes_[0]) return ser_memo_ps_[0];
    if (bytes == ser_memo_bytes_[1]) return ser_memo_ps_[1];
    ser_memo_bytes_[1] = ser_memo_bytes_[0];
    ser_memo_ps_[1] = ser_memo_ps_[0];
    ser_memo_bytes_[0] = bytes;
    ser_memo_ps_[0] = serialization_time(bytes, rate_);
    return ser_memo_ps_[0];
  }

  Simulator& sim_;
  Rng& rng_;
  std::string name_;
  BitsPerSecond rate_;
  PicoTime propagation_;
  Node* peer_ = nullptr;
  int peer_ingress_ = -1;

  void pi_update();

  RedConfig red_;
  FaultHook fault_hook_;
  PiAqmConfig pi_;
  double pi_p_ = 0.0;
  double pi_prev_queue_pkts_ = 0.0;
  bool wire_timestamping_ = false;
  Bytes buffer_limit_ = 0;
  std::deque<Packet> queues_[kNumPriorities];
  Bytes queued_bytes_[kNumPriorities] = {0, 0};
  Bytes peak_queued_bytes_ = 0;
  /// Reserved key of the in-flight packet's transmit-complete event; the
  /// transmitter is busy until the simulator has passed() it. The event is
  /// queued (wake_queued_) only once a packet is waiting for the wire.
  Simulator::EventKey tx_done_;
  bool wake_queued_ = false;
  bool paused_ = false;
  Bytes ser_memo_bytes_[2] = {-1, -1};
  PicoTime ser_memo_ps_[2] = {0, 0};

  /// Flight-recorder state for sampled in-queue data packets. The data
  /// priority is strictly FIFO (enqueue_front is control-only), so sampled
  /// packets leave in the order their tags were pushed: the head tag matches
  /// the departing packet iff that packet is sampled. Touched only when
  /// obs::flight_enabled() — the unsampled hot path pays one relaxed load.
  struct FlightTag {
    std::uint64_t flow_id = 0;
    std::uint32_t seq = 0;
    PicoTime enqueue_ps = 0;
    PicoTime pause_snapshot_ps = 0;  ///< paused_ps_total at enqueue
    Bytes queue_bytes = 0;           ///< data backlog the packet joined
    double enqueue_mark_prob = -1.0; ///< probability used if marking at enqueue
    std::uint16_t ecmp_candidates = 1;
    std::uint16_t ecmp_choice = 0;
  };
  std::deque<FlightTag> flight_tags_;
  std::uint16_t flight_ecmp_candidates_ = 1;
  std::uint16_t flight_ecmp_choice_ = 0;
  const char* flight_name_ = nullptr;  ///< interned name_, filled lazily

  /// PFC pause bookkeeping for causality + dwell accounting.
  std::uint64_t paused_by_ = 0;
  PicoTime paused_since_ps_ = 0;
  PicoTime paused_accum_ps_ = 0;

  std::uint64_t drops_ = 0;
  std::uint64_t pfc_pause_events_ = 0;
  std::uint64_t tx_packets_ = 0;
  std::uint64_t tx_bytes_ = 0;
  std::uint64_t marked_packets_ = 0;

  /// Interned "<name>.q" label for the tracer's per-port queue-depth track;
  /// null when tracing was off at construction (see obs/trace.hpp).
  const char* trace_queue_track_ = nullptr;
};

}  // namespace ecnd::sim
