#include "sim/port.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "core/diagnostic.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/node.hpp"

namespace ecnd::sim {
namespace {

// Packet-path metrics, aggregated across every port of every network in the
// process (per-port totals stay on the Port accessors). All sim-domain:
// identical for a given scenario at any thread count.
const obs::Counter kEnqueued = obs::counter("sim.pkt_enqueued");
const obs::Counter kTailDropped = obs::counter("sim.pkt_tail_dropped");
const obs::Counter kTransmitted = obs::counter("sim.pkt_tx");
const obs::Counter kEcnMarked = obs::counter("sim.ecn_marked");
const obs::Counter kPfcPauses = obs::counter("sim.pfc_pauses");
const obs::Counter kPfcResumes = obs::counter("sim.pfc_resumes");
const obs::Gauge kQueueMax = obs::gauge("sim.queue_bytes_max");
const obs::Histogram kPktBytes = obs::histogram("sim.pkt_bytes");

}  // namespace

Port::Port(Simulator& sim, Rng& rng, std::string name, BitsPerSecond rate,
           PicoTime propagation)
    : sim_(sim),
      rng_(rng),
      name_(std::move(name)),
      rate_(rate),
      propagation_(propagation) {
  assert(rate_ > 0.0);
  if (obs::trace_enabled()) {
    trace_queue_track_ = obs::intern(name_ + ".q");
  }
}

void Port::connect(Node* peer, int peer_ingress_port) {
  peer_ = peer;
  peer_ingress_ = peer_ingress_port;
}

double Port::marking_probability(Bytes queue) const {
  if (queue <= red_.kmin) return 0.0;
  if (!red_.linear_extension && queue > red_.kmax) return 1.0;
  const double frac = static_cast<double>(queue - red_.kmin) /
                      static_cast<double>(red_.kmax - red_.kmin);
  return std::min(1.0, frac * red_.pmax);
}

void Port::set_pi_aqm(const PiAqmConfig& pi) {
  const bool was_enabled = pi_.enabled;
  pi_ = pi;
  if (pi_.enabled && !was_enabled) {
    sim_.schedule_in(pi_.update_interval, [this] { pi_update(); });
  }
}

void Port::pi_update() {
  if (!pi_.enabled) return;
  const double q_pkts =
      static_cast<double>(queued_bytes(kDataPriority)) / pi_.mtu_bytes;
  const double qref_pkts = static_cast<double>(pi_.qref) / pi_.mtu_bytes;
  const double dt = to_seconds(pi_.update_interval);
  pi_p_ += pi_.gain_integral * dt * (q_pkts - qref_pkts) +
           pi_.gain_proportional * (q_pkts - pi_prev_queue_pkts_);
  pi_p_ = std::clamp(pi_p_, 0.0, 1.0);
  pi_prev_queue_pkts_ = q_pkts;
  sim_.schedule_in(pi_.update_interval, [this] { pi_update(); });
}

void Port::enqueue(Packet pkt) {
  assert(peer_ != nullptr);
  if (buffer_limit_ > 0 && queued_bytes() + pkt.size > buffer_limit_) {
    ++drops_;
    kTailDropped.add();
    obs::trace_instant("pkt.tail_drop", to_microseconds(sim_.now()),
                       static_cast<double>(pkt.size), pkt.flow_id);
    if (obs::flight_enabled()) {
      // The staged ECMP decision dies with the dropped packet.
      flight_ecmp_candidates_ = 1;
      flight_ecmp_choice_ = 0;
    }
    return;
  }
  kEnqueued.add();
  double enqueue_mark_prob = -1.0;
  if (red_.enabled && red_.position == MarkPosition::kEnqueue &&
      pkt.type == PacketType::kData) {
    // "Marking on ingress" (Figure 17): decide from the backlog the packet
    // sees on arrival; the mark then ages in the queue before departing.
    const double p = marking_probability(queued_bytes(kDataPriority));
    if (rng_.bernoulli(p)) pkt.ecn_marked = true;
    enqueue_mark_prob = p;
  }
  if (obs::flight_enabled() && pkt.type == PacketType::kData) {
    const std::uint16_t ecmp_candidates = flight_ecmp_candidates_;
    const std::uint16_t ecmp_choice = flight_ecmp_choice_;
    flight_ecmp_candidates_ = 1;
    flight_ecmp_choice_ = 0;
    if (obs::flight_sampled(pkt.src_host, pkt.dst_host, pkt.flow_id)) {
      FlightTag tag;
      tag.flow_id = pkt.flow_id;
      tag.seq = pkt.seq;
      tag.enqueue_ps = sim_.now();
      tag.pause_snapshot_ps = paused_ps_total(sim_.now());
      tag.queue_bytes = queued_bytes(kDataPriority);
      tag.enqueue_mark_prob = enqueue_mark_prob;
      tag.ecmp_candidates = ecmp_candidates;
      tag.ecmp_choice = ecmp_choice;
      flight_tags_.push_back(tag);
    }
  }
  const int prio = pkt.priority();
  queued_bytes_[prio] += pkt.size;
  queues_[prio].push_back(pkt);
  peak_queued_bytes_ = std::max(peak_queued_bytes_, queued_bytes());
  kQueueMax.set_max(static_cast<std::uint64_t>(queued_bytes()));
  if (trace_queue_track_ != nullptr) {
    obs::trace_counter(trace_queue_track_, to_microseconds(sim_.now()),
                       static_cast<double>(queued_bytes()));
  }
  try_transmit();
}

void Port::enqueue_front(Packet pkt) {
  assert(peer_ != nullptr);
  assert(pkt.priority() == kControlPriority &&
         "enqueue_front is for control frames only");
  // No buffer-limit check: a PFC frame must never be tail-dropped — dropping
  // the pause is exactly how a "lossless" fabric loses data.
  kEnqueued.add();
  queued_bytes_[kControlPriority] += pkt.size;
  queues_[kControlPriority].push_front(pkt);
  peak_queued_bytes_ = std::max(peak_queued_bytes_, queued_bytes());
  kQueueMax.set_max(static_cast<std::uint64_t>(queued_bytes()));
  if (trace_queue_track_ != nullptr) {
    obs::trace_counter(trace_queue_track_, to_microseconds(sim_.now()),
                       static_cast<double>(queued_bytes()));
  }
  try_transmit();
}

void Port::pfc_pause(std::uint64_t pause_id) {
  if (!paused_) {
    ++pfc_pause_events_;
    paused_since_ps_ = sim_.now();
    kPfcPauses.add();
    obs::trace_instant("pfc.pause", to_microseconds(sim_.now()),
                       static_cast<double>(queued_bytes()));
  }
  paused_ = true;
  if (pause_id != 0) paused_by_ = pause_id;
}

void Port::pfc_resume() {
  if (!paused_) return;
  paused_ = false;
  paused_by_ = 0;
  paused_accum_ps_ += sim_.now() - paused_since_ps_;
  kPfcResumes.add();
  obs::trace_instant("pfc.resume", to_microseconds(sim_.now()),
                     static_cast<double>(queued_bytes()));
  try_transmit();
}

int Port::next_priority() const {
  // Strict priority: control first; data only when not PFC-paused.
  if (!queues_[kControlPriority].empty()) return kControlPriority;
  if (!paused_ && !queues_[kDataPriority].empty()) return kDataPriority;
  return -1;
}

void Port::wake_at_tx_done() {
  if (wake_queued_) return;
  wake_queued_ = true;
  sim_.schedule_at_key(tx_done_, [this] {
    wake_queued_ = false;
    try_transmit();
  });
}

void Port::try_transmit() {
  const int prio = next_priority();
  if (prio < 0) return;
  if (!sim_.passed(tx_done_)) {
    // Still serializing: the packet goes out at the completion key, exactly
    // where an always-scheduled completion event would have sent it.
    wake_at_tx_done();
    return;
  }

  Packet pkt = queues_[prio].front();
  queues_[prio].pop_front();
  queued_bytes_[prio] -= pkt.size;
  if (queued_bytes_[prio] < 0) {
    throw InvariantViolation(Diagnostic::make(
        "Port " + name_, "queued_bytes[" + std::to_string(prio) + "]",
        to_seconds(sim_.now()), static_cast<double>(queued_bytes_[prio]),
        "queue byte accounting went negative"));
  }

  if (wire_timestamping_ && pkt.type == PacketType::kData) {
    pkt.sent_at = sim_.now();
  }

  double dequeue_mark_prob = -1.0;
  if (pkt.type == PacketType::kData) {
    if (pi_.enabled) {
      // PI-controller marking (egress): probability is the controller state.
      if (rng_.bernoulli(pi_p_)) pkt.ecn_marked = true;
      dequeue_mark_prob = pi_p_;
    } else if (red_.enabled && red_.position == MarkPosition::kDequeue) {
      // Egress marking: the decision reflects the backlog at departure (the
      // remaining queue), so the signal is as fresh as the wire allows.
      const double p = marking_probability(queued_bytes(kDataPriority));
      if (rng_.bernoulli(p)) pkt.ecn_marked = true;
      dequeue_mark_prob = p;
    }
  }
  if (pkt.type == PacketType::kData && on_dequeue) on_dequeue(pkt);

  if (obs::flight_enabled() && pkt.type == PacketType::kData &&
      !flight_tags_.empty() && flight_tags_.front().flow_id == pkt.flow_id &&
      flight_tags_.front().seq == pkt.seq) {
    // The head tag matches iff the departing packet is sampled (the data
    // queue is FIFO and a flow is sampled in full or not at all).
    const FlightTag tag = flight_tags_.front();
    flight_tags_.pop_front();
    if (flight_name_ == nullptr) flight_name_ = obs::intern(name_);
    obs::FlightHop hop;
    hop.flow_id = pkt.flow_id;
    hop.seq = pkt.seq;
    hop.port = flight_name_;
    hop.t_in_ps = tag.enqueue_ps;
    hop.t_out_ps = sim_.now();
    hop.queue_bytes = tag.queue_bytes;
    hop.pause_dwell_ps = paused_ps_total(sim_.now()) - tag.pause_snapshot_ps;
    hop.mark_prob = tag.enqueue_mark_prob >= 0.0
                        ? tag.enqueue_mark_prob
                        : (dequeue_mark_prob >= 0.0 ? dequeue_mark_prob : 0.0);
    hop.marked = pkt.ecn_marked;
    hop.ecmp_candidates = tag.ecmp_candidates;
    hop.ecmp_choice = tag.ecmp_choice;
    obs::flight_record_hop(hop);
  }

  ++tx_packets_;
  tx_bytes_ += static_cast<std::uint64_t>(pkt.size);
  kTransmitted.add();
  kPktBytes.record(static_cast<std::uint64_t>(pkt.size));
  if (pkt.ecn_marked) {
    ++marked_packets_;
    kEcnMarked.add();
    obs::trace_instant("pkt.ecn_mark", to_microseconds(sim_.now()),
                       static_cast<double>(queued_bytes(kDataPriority)),
                       pkt.flow_id);
  }
  if (trace_queue_track_ != nullptr) {
    obs::trace_counter(trace_queue_track_, to_microseconds(sim_.now()),
                       static_cast<double>(queued_bytes()));
  }

  // Wire faults (fault injection): the packet has been transmitted and
  // counted; the hook decides whether the wire loses, copies, holds back or
  // corrupts it. Serialization time is spent either way.
  FaultAction fault;
  if (fault_hook_) fault = fault_hook_(pkt, sim_.now());
  if (fault.flip_ecn) pkt.ecn_marked = !pkt.ecn_marked;

  const PicoTime serialization = serialization_ps(pkt.size);
  // Transmitter frees up after serialization; the packet lands at the peer
  // after serialization + propagation. The completion key is reserved ahead
  // of the arrivals, so both keep the seqs they always had; the completion
  // itself is queued only if a packet is already waiting (enqueue,
  // enqueue_front and pfc_resume queue it for later arrivals). A wake-up
  // queued under the previous key has already run: that key has passed.
  tx_done_ = sim_.reserve_key(sim_.now() + serialization);
  if (next_priority() >= 0) wake_at_tx_done();
  if (!fault.drop) {
    const PicoTime arrival = serialization + propagation_ + fault.extra_delay;
    for (int copy = 0; copy <= fault.duplicates; ++copy) {
      sim_.schedule_in(arrival, [this, pkt]() mutable {
        peer_->receive(pkt, peer_ingress_);
      });
    }
  }
}

}  // namespace ecnd::sim
