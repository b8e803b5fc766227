#pragma once
// Output-queued shared-buffer switch with RED/ECN marking and PFC
// (IEEE 802.1Qbb) on the data priority.
//
// PFC model: the switch attributes every buffered data byte to the ingress
// port it arrived through. When an ingress's share exceeds the pause
// threshold, a PAUSE frame is sent back out of that port (control priority,
// never paused itself); the upstream transmitter stops sending data until a
// RESUME follows once the share drains below the resume threshold. With sane
// headroom this makes the fabric drop-free, which is the premise of the
// paper's RoCEv2 setting.

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/hash.hpp"
#include "sim/node.hpp"
#include "sim/port.hpp"

namespace ecnd::sim {

struct PfcConfig {
  bool enabled = false;
  Bytes pause_threshold = kilobytes(256.0);
  Bytes resume_threshold = kilobytes(192.0);
};

/// Why a PAUSE frame was sent: the ingress whose buffered share crossed the
/// threshold, the packet that pushed it over (its flow and intended egress),
/// and the upstream pause that was blocking that egress at the instant of the
/// crossing (`parent` — 0 when the egress was flowing, i.e. this pause is a
/// root). The id travels inside the PAUSE frame itself (Packet::flow_id is
/// unused for control frames), so the paused port knows which event blocks it
/// and a further upstream crossing can name it as parent: the edges stitch
/// into the rooted propagation trees that measure_pause_reach reports.
/// Recorded unconditionally when PFC is on — a handful of PODs per pause is
/// sim-domain cheap and keeps causality available with every obs knob idle.
struct PauseCause {
  std::uint64_t id = 0;        ///< (switch id << 32) | per-switch sequence
  std::uint64_t parent = 0;    ///< pause blocking the trigger's egress; 0=root
  PicoTime time = 0;           ///< when the threshold crossing happened
  int ingress_port = -1;       ///< port whose share crossed; PAUSE goes here
  int egress_port = -1;        ///< where the trigger packet was heading
  std::uint64_t trigger_flow = 0;  ///< flow of the packet that crossed it
};

/// Deterministic per-flow ECMP hash: FNV-1a over the flow identity (src host,
/// dst host, flow id), seeded so distinct switches spread differently (no
/// hash polarization down the tiers). Pure function of its inputs — runs are
/// bit-identical at any ECND_THREADS, and a flow's packets all take the same
/// path (no intra-flow reordering).
inline std::uint64_t ecmp_hash(std::uint64_t seed, int src_host, int dst_host,
                               std::uint64_t flow_id) {
  std::uint64_t h = kFnvOffsetBasis ^ seed;
  h = fnv1a_field(h, static_cast<std::uint32_t>(src_host), 4);
  h = fnv1a_field(h, static_cast<std::uint32_t>(dst_host), 4);
  return fnv1a_field(h, flow_id, 8);
}

class Switch final : public Node {
 public:
  Switch(Simulator& sim, Rng& rng, std::string name, int id)
      : Node(std::move(name), id), sim_(sim), rng_(rng) {}

  /// Add an egress port transmitting at `rate` over a link with the given
  /// propagation delay; returns the port index (also its ingress index).
  int add_port(BitsPerSecond rate, PicoTime propagation);

  Port& port(int index) { return *ports_[static_cast<std::size_t>(index)]; }
  const Port& port(int index) const { return *ports_[static_cast<std::size_t>(index)]; }
  int num_ports() const { return static_cast<int>(ports_.size()); }

  /// Append an equal-cost next-hop for `dst_host` (deduplicated). The order
  /// of add_route calls fixes the ECMP candidate order, so callers must add
  /// routes deterministically (build_routes iterates links in wiring order).
  void add_route(int dst_host, int egress_port);
  void clear_routes() { routes_.clear(); }
  bool has_route(int dst_host) const { return routes_.contains(dst_host); }
  /// Equal-cost egress set toward `dst_host` (empty when unrouted).
  const std::vector<int>& route_ports(int dst_host) const;

  /// Seed for this switch's ECMP hash (see ecmp_hash); distinct per switch.
  void set_ecmp_seed(std::uint64_t seed) { ecmp_seed_ = seed; }
  std::uint64_t ecmp_seed() const { return ecmp_seed_; }

  void set_pfc(const PfcConfig& pfc) { pfc_ = pfc; }
  /// Apply a RED profile to every current port.
  void set_red_all(const RedConfig& red);

  void receive(Packet pkt, int ingress_port) override;

  Bytes ingress_buffered(int ingress_port) const {
    return ingress_bytes_[static_cast<std::size_t>(ingress_port)];
  }
  /// PFC frames originated by this switch, pause + resume combined.
  std::uint64_t pause_frames_sent() const { return pause_frames_; }
  /// Pause frames only (propagation-depth studies count rings of pauses).
  std::uint64_t pauses_sent() const { return pauses_only_; }
  /// Causality record per PAUSE this switch originated, in emission order
  /// (see PauseCause); measure_pause_reach stitches these into pause trees.
  const std::vector<PauseCause>& pause_causes() const { return pause_causes_; }

 private:
  void account_dequeue(const Packet& pkt);
  /// `pause_id` rides in the frame's flow_id field (kPause only; 0 for
  /// kResume) so the receiving port can attribute its paused state.
  void send_pfc(int ingress_port, PacketType type, std::uint64_t pause_id = 0);

  Simulator& sim_;
  Rng& rng_;
  std::vector<std::unique_ptr<Port>> ports_;
  std::unordered_map<int, std::vector<int>> routes_;
  std::uint64_t ecmp_seed_ = 0;
  PfcConfig pfc_;
  std::vector<Bytes> ingress_bytes_;
  std::vector<bool> ingress_paused_;
  std::uint64_t pause_frames_ = 0;
  std::uint64_t pauses_only_ = 0;
  std::uint32_t pause_seq_ = 0;  ///< per-switch PAUSE counter for PauseCause ids
  std::vector<PauseCause> pause_causes_;
};

}  // namespace ecnd::sim
