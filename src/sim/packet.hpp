#pragma once
// The packet model shared by hosts and switches.

#include <cstdint>

#include "core/units.hpp"

namespace ecnd::sim {

enum class PacketType : std::uint8_t {
  kData,    ///< flow payload (low priority, subject to ECN marking and PFC)
  kAck,     ///< per-chunk completion acknowledgment (TIMELY RTT carrier)
  kCnp,     ///< DCQCN congestion notification packet (NP -> RP)
  kPause,   ///< PFC PAUSE frame (hop-local, high priority)
  kResume,  ///< PFC RESUME frame (hop-local, high priority)
};

/// Two service classes: control traffic (ACK/CNP/PFC) rides the strict-high
/// priority queue, mirroring real deployments that prioritize feedback.
enum : int { kControlPriority = 0, kDataPriority = 1, kNumPriorities = 2 };

struct Packet {
  PacketType type = PacketType::kData;
  int src_host = -1;        ///< originating host id (routing key for ACK/CNP)
  int dst_host = -1;        ///< destination host id (routing key)
  /// Flow identity for data/ACK/CNP. PFC frames have no flow, so kPause
  /// reuses the field to carry the pause-event id (Switch::send_pfc /
  /// PauseCause) — causality attribution without growing the struct: a
  /// port's [this, pkt] capture must fit Simulator::kInlineActionBytes, which
  /// port.cpp static_asserts.
  std::uint64_t flow_id = 0;
  Bytes size = 0;           ///< wire size in bytes
  std::uint32_t seq = 0;    ///< data sequence (packet index within flow)
  PicoTime sent_at = 0;     ///< tx timestamp at the source NIC (RTT echo)
  bool ecn_marked = false;  ///< CE codepoint
  bool chunk_end = false;   ///< last packet of a completion chunk (TIMELY)
  bool flow_end = false;    ///< last packet of the flow
  bool wants_ack = false;   ///< receiver should acknowledge this packet

  int priority() const {
    return type == PacketType::kData ? kDataPriority : kControlPriority;
  }

  /// Transient switch-internal tag: which ingress port the packet entered
  /// through (for PFC shared-buffer accounting). Set on switch arrival.
  int ingress_port = -1;
};

inline constexpr Bytes kControlPacketBytes = 64;

}  // namespace ecnd::sim
