#pragma once
// Flight recorder: in-band path telemetry for the packet simulator.
//
// Three coordinated record streams, all in SIMULATION time:
//
//   * Postcards — for deterministically sampled flows, every hop (host NIC
//     and every switch egress) appends one POD record per packet: port,
//     enqueue/transmit times, the data backlog the packet joined, the ECN
//     marking probability in force at this hop and the CE bit on departure,
//     the ECMP candidate count + chosen index, and how long the packet sat
//     behind a PFC pause. This is the per-hop latency/queue/mark
//     decomposition an INT postcard would carry in a real fabric.
//
//   * Flow spans — per sampled flow, a Chrome-trace "X" span from first
//     transmission to FCT with one aggregated sub-slice per hop, so a
//     Perfetto timeline shows where a tail-latency flow spent its life.
//
//   * Pause causality — every PAUSE frame a switch originates is tagged with
//     its trigger (the congested egress whose backlog crossed the threshold
//     and the flow whose arrival pushed it over) and with its parent pause
//     (the pause currently blocking that egress, if any). The records form a
//     rooted forest: the root is the first pause at the congestion victim,
//     children are the upstream pauses it caused.
//
// Sampling is an FNV-1a hash of (src, dst, flow_id) against the
// ECND_FLIGHT_SAMPLE modulus — the same pure-hash idiom as sim's ecmp_hash.
// No RNG stream is consumed, so a run's packet-level behavior is
// bit-identical with the recorder armed or idle.
//
// Records are buffered per sweep task in the per-task store
// (obs/task_store.hpp, shared with the tracer), so exports are
// byte-identical at any ECND_THREADS. Postcard buffers are bounded (keep-first + drop counter);
// span and pause buffers are small by construction.
//
// Runtime knobs: ECND_FLIGHT=<prefix> arms the recorder and writes
// <prefix>.postcards.json, <prefix>.timeline.json and <prefix>.pausetree.json
// at process exit; ECND_FLIGHT_SAMPLE=<n> samples flows whose identity hash
// is divisible by n (default 16; 1 = every flow). Idle, a hook costs one
// relaxed load.

#include <atomic>
#include <cstdint>
#include <iosfwd>

#include "core/hash.hpp"

namespace ecnd::obs {

/// Default sampling modulus when ECND_FLIGHT_SAMPLE is unset: 1 in 16 flows.
inline constexpr std::uint64_t kDefaultFlightSample = 16;

/// One postcard: a sampled packet's passage through one hop. POD; `port` must
/// be an interned (obs::intern) or static string.
struct FlightHop {
  std::uint64_t flow_id = 0;
  std::uint32_t seq = 0;
  const char* port = "";
  std::int64_t t_in_ps = 0;        ///< enqueue time at this hop
  std::int64_t t_out_ps = 0;       ///< transmit time at this hop
  std::int64_t queue_bytes = 0;    ///< data backlog the packet joined
  std::int64_t pause_dwell_ps = 0; ///< queueing time spent PFC-paused
  double mark_prob = 0.0;          ///< marking probability applied at this hop
  bool marked = false;             ///< CE bit on departure (any-hop cumulative)
  std::uint16_t ecmp_candidates = 1;
  std::uint16_t ecmp_choice = 0;
};

/// One completed sampled flow (start -> FCT), closing its span.
struct FlightFlow {
  std::uint64_t flow_id = 0;
  int src_host = -1;
  int dst_host = -1;
  std::int64_t size_bytes = 0;
  std::int64_t start_ps = 0;
  std::int64_t end_ps = 0;
};

/// One originated PAUSE frame with its causal tag. `egress_name` must be an
/// interned or static string (the congested port the trigger was heading to).
struct FlightPause {
  std::uint64_t pause_id = 0;      ///< unique per network, carried in the frame
  std::uint64_t parent_id = 0;     ///< pause blocking the egress; 0 = root
  std::int64_t t_ps = 0;
  int switch_id = -1;
  int ingress_port = -1;           ///< port the PAUSE left through
  int egress_port = -1;            ///< congested egress the trigger targeted
  std::uint64_t trigger_flow = 0;  ///< flow whose arrival crossed the threshold
  const char* egress_name = "";
};

namespace detail {
extern std::atomic<bool> g_flight_on;
extern std::atomic<std::uint64_t> g_flight_sample;
void flight_push_hop(const FlightHop& hop);
void flight_push_flow(const FlightFlow& flow);
void flight_push_pause(const FlightPause& pause);
/// Drop every buffer (obs::reset's flight half).
void flight_reset();
}  // namespace detail

inline bool flight_enabled() {
  return detail::g_flight_on.load(std::memory_order_relaxed);
}

/// Programmatic override (tests). ECND_FLIGHT arms this at startup.
void set_flight_enabled(bool on);

/// Sampling modulus: a flow is recorded iff hash(src,dst,flow) % n == 0.
/// n is clamped to >= 1; 1 records every flow.
void set_flight_sample(std::uint64_t n);
std::uint64_t flight_sample();

/// Deterministic sampling decision: FNV-1a over the flow identity (the same
/// mix as sim::ecmp_hash, unseeded) with a murmur3 avalanche finalizer,
/// reduced by the sampling modulus. The finalizer matters: FNV-1a's low bits
/// are weak, and over the correlated identities flows actually have (flow_id
/// embeds src_host) a power-of-two modulus on the raw hash can miss residue
/// 0 entirely — whole scenarios silently record nothing. Pure — consumes no
/// RNG, identical at any thread count.
inline bool flight_sampled(int src_host, int dst_host, std::uint64_t flow_id) {
  std::uint64_t h = fnv1a_field(kFnvOffsetBasis,
                                static_cast<std::uint32_t>(src_host), 4);
  h = fnv1a_field(h, static_cast<std::uint32_t>(dst_host), 4);
  h = fnv1a_field(h, flow_id, 8);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h % detail::g_flight_sample.load(std::memory_order_relaxed) == 0;
}

inline void flight_record_hop(const FlightHop& hop) {
  if (flight_enabled()) detail::flight_push_hop(hop);
}
inline void flight_record_flow(const FlightFlow& flow) {
  if (flight_enabled()) detail::flight_push_flow(flow);
}
inline void flight_record_pause(const FlightPause& pause) {
  if (flight_enabled()) detail::flight_push_pause(pause);
}

/// Postcards dropped to buffer overflow, summed over all task buffers.
std::uint64_t flight_dropped_total();

/// Per-task postcard capacity (keep-first). Applies to buffers created after
/// the call; obs::reset() drops existing buffers so tests can shrink it.
void set_flight_capacity(std::size_t records);

// Exports: tasks in index order, records in emission order within a task.
// Deterministic for a deterministic run at any thread count.
void write_flight_postcards_json(std::ostream& out);
void write_flight_timeline_json(std::ostream& out);
void write_flight_pausetree_json(std::ostream& out);

/// Write all three export files under `prefix` (the ECND_FLIGHT value):
/// <prefix>.postcards.json, <prefix>.timeline.json, <prefix>.pausetree.json.
void write_flight_files(const char* prefix);

}  // namespace ecnd::obs
