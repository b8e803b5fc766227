#include "obs/flight.hpp"

#if !defined(ECND_OBS_DISABLED)

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/export_file.hpp"
#include "obs/json_text.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ecnd::obs {

namespace detail {
std::atomic<bool> g_flight_on{false};
std::atomic<std::uint64_t> g_flight_sample{kDefaultFlightSample};
}  // namespace detail

namespace {

// Sim-domain volume counters (catalogued in OBSERVABILITY.md): how much the
// recorder captured. Zero unless the recorder is armed, so the default
// metrics dump is unchanged by this module.
const Counter kFlightHops = counter("obs.flight_hops");
const Counter kFlightFlows = counter("obs.flight_flows");
const Counter kFlightPauses = counter("obs.flight_pauses");
const Counter kFlightDropped = counter("obs.flight_dropped");

/// One sweep task's record streams. Postcards are keep-first bounded: the
/// head of a flow's life is what localizes its latency, and a fixed prefix
/// is deterministic under any completion order. Spans and pause tags are
/// small by construction (one record per flow / per PAUSE frame).
struct TaskFlight {
  explicit TaskFlight(std::size_t capacity) : cap(capacity) {}

  std::vector<FlightHop> hops;
  std::uint64_t hop_attempts = 0;
  std::vector<FlightFlow> flows;
  std::vector<FlightPause> pauses;
  std::size_t cap;

  std::uint64_t dropped() const {
    return hop_attempts > hops.size() ? hop_attempts - hops.size() : 0;
  }
};

/// Buffers keyed by task index; same ownership discipline as the tracer's
/// rings — a buffer is only ever written by the thread currently running its
/// task, and the sweep engine joins workers before any export.
class FlightStore {
 public:
  static FlightStore& instance() {
    static FlightStore* s = new FlightStore;
    return *s;
  }

  TaskFlight* buffer_for(std::uint32_t task) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = buffers_[task];
    if (!slot) slot = std::make_unique<TaskFlight>(capacity_);
    return slot.get();
  }

  void set_capacity(std::size_t cap) {
    const std::lock_guard<std::mutex> lock(mutex_);
    capacity_ = cap > 0 ? cap : 1;
  }

  void clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    buffers_.clear();
  }

  std::uint64_t dropped_total() {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const auto& [task, buf] : buffers_) total += buf->dropped();
    return total;
  }

  std::vector<std::pair<std::uint32_t, const TaskFlight*>> snapshot() {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::uint32_t, const TaskFlight*>> out;
    out.reserve(buffers_.size());
    for (const auto& [task, buf] : buffers_) out.emplace_back(task, buf.get());
    return out;
  }

 private:
  std::mutex mutex_;
  std::map<std::uint32_t, std::unique_ptr<TaskFlight>> buffers_;
  std::size_t capacity_ = 1 << 16;
};

thread_local std::uint32_t t_flight_task = 0;
thread_local TaskFlight* t_flight = nullptr;

TaskFlight& current_buffer() {
  const std::uint32_t task = detail::current_task();
  if (t_flight == nullptr || t_flight_task != task) {
    t_flight = FlightStore::instance().buffer_for(task);
    t_flight_task = task;
  }
  return *t_flight;
}

/// Chrome trace timestamps: sim microseconds with fixed 6-decimal rendering
/// (identical to the instant-event tracer's ts format).
std::string ts_us(std::int64_t ps) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6f", static_cast<double>(ps) / 1e6);
  return buf;
}

/// Per-flow hop aggregate for the timeline's sub-slices: one slice per hop of
/// the flow's path, [first enqueue, last transmit].
struct HopSlice {
  const char* port = "";
  std::int64_t t_first_in_ps = 0;
  std::int64_t t_last_out_ps = 0;
  std::uint64_t packets = 0;
  std::uint64_t marks = 0;
  std::int64_t queue_peak_bytes = 0;
  std::int64_t dwell_ps = 0;
};

}  // namespace

namespace detail {

void flight_push_hop(const FlightHop& hop) {
  TaskFlight& buf = current_buffer();
  ++buf.hop_attempts;
  if (buf.hops.size() < buf.cap) {
    buf.hops.push_back(hop);
    kFlightHops.add();
  } else {
    kFlightDropped.add();
  }
}

void flight_push_flow(const FlightFlow& flow) {
  current_buffer().flows.push_back(flow);
  kFlightFlows.add();
}

void flight_push_pause(const FlightPause& pause) {
  current_buffer().pauses.push_back(pause);
  kFlightPauses.add();
}

void flight_reset() {
  FlightStore::instance().clear();
  t_flight = nullptr;
}

}  // namespace detail

void set_flight_enabled(bool on) {
  detail::g_flight_on.store(on, std::memory_order_relaxed);
}

void set_flight_sample(std::uint64_t n) {
  detail::g_flight_sample.store(n > 0 ? n : 1, std::memory_order_relaxed);
}

std::uint64_t flight_sample() {
  return detail::g_flight_sample.load(std::memory_order_relaxed);
}

void set_flight_capacity(std::size_t records) {
  FlightStore::instance().set_capacity(records);
}

std::uint64_t flight_dropped_total() {
  return FlightStore::instance().dropped_total();
}

void write_flight_postcards_json(std::ostream& out) {
  const auto buffers = FlightStore::instance().snapshot();
  out << "{\"schema\":\"ecnd-flight-postcards-v1\",\"sample_modulus\":"
      << flight_sample() << ",\"tasks\":[";
  const char* task_sep = "\n";
  for (const auto& [task, buf] : buffers) {
    out << task_sep << "{\"task\":" << task << ",\"dropped\":" << buf->dropped()
        << ",\"records\":[";
    task_sep = ",\n";
    const char* sep = "\n";
    for (const FlightHop& h : buf->hops) {
      out << sep << "{\"flow\":" << h.flow_id << ",\"seq\":" << h.seq
          << ",\"port\":\"" << json_escape(h.port)
          << "\",\"t_in_ps\":" << h.t_in_ps << ",\"t_out_ps\":" << h.t_out_ps
          << ",\"queue_b\":" << h.queue_bytes
          << ",\"dwell_ps\":" << h.pause_dwell_ps
          << ",\"mark_p\":" << json_double(h.mark_prob)
          << ",\"marked\":" << (h.marked ? "true" : "false")
          << ",\"ecmp\":[" << h.ecmp_candidates << "," << h.ecmp_choice
          << "]}";
      sep = ",\n";
    }
    out << "\n]}";
  }
  out << "\n]}\n";
}

void write_flight_timeline_json(std::ostream& out) {
  const auto buffers = FlightStore::instance().snapshot();
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  const char* sep = "\n";
  // Lane stride: flow span at (lane+1)*16, hop h at (lane+1)*16 + 1 + h.
  // Clos paths here are at most 6 hops; the stride keeps every (flow, hop)
  // on its own Perfetto thread so slices never overlap within a track. Lanes
  // start at tid 16, not 0: the tid band [0, 16) is reserved for the event
  // tracer (trace.cpp), which shares the task-index pid namespace, so one
  // Perfetto session can load both files coherently (OBSERVABILITY.md,
  // "Shared pid/tid namespace").
  constexpr std::uint64_t kLaneStride = 16;
  for (const auto& [task, buf] : buffers) {
    out << sep << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << task
        << ",\"tid\":0,\"args\":{\"name\":\"task " << task << "\"}}";
    sep = ",\n";
    // Bucket this task's postcards by flow (emission order preserved).
    std::unordered_map<std::uint64_t, std::vector<const FlightHop*>> by_flow;
    for (const FlightHop& h : buf->hops) by_flow[h.flow_id].push_back(&h);

    for (std::size_t lane = 0; lane < buf->flows.size(); ++lane) {
      const FlightFlow& flow = buf->flows[lane];
      const auto found = by_flow.find(flow.flow_id);

      // Aggregate per hop, in path order (per-hop FIFO + per-flow ECMP path
      // stickiness make first-occurrence order the path order).
      std::vector<HopSlice> slices;
      std::int64_t span_start = flow.start_ps;
      if (found != by_flow.end()) {
        for (const FlightHop* h : found->second) {
          HopSlice* slice = nullptr;
          for (HopSlice& s : slices) {
            if (s.port == h->port) { slice = &s; break; }
          }
          if (slice == nullptr) {
            slices.push_back({});
            slice = &slices.back();
            slice->port = h->port;
            slice->t_first_in_ps = h->t_in_ps;
          }
          slice->t_last_out_ps = std::max(slice->t_last_out_ps, h->t_out_ps);
          ++slice->packets;
          if (h->marked) ++slice->marks;
          slice->queue_peak_bytes = std::max(slice->queue_peak_bytes, h->queue_bytes);
          slice->dwell_ps += h->pause_dwell_ps;
          span_start = std::min(span_start, h->t_in_ps);
        }
      }

      const std::uint64_t base =
          (static_cast<std::uint64_t>(lane) + 1) * kLaneStride;
      out << sep << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << task
          << ",\"tid\":" << base << ",\"args\":{\"name\":\"flow " << flow.flow_id
          << " h" << flow.src_host << "->h" << flow.dst_host << "\"}}";
      out << sep << "{\"name\":\"flow " << flow.flow_id << "\",\"ph\":\"X\",\"pid\":"
          << task << ",\"tid\":" << base << ",\"ts\":" << ts_us(span_start)
          << ",\"dur\":" << ts_us(flow.end_ps - span_start)
          << ",\"args\":{\"bytes\":" << flow.size_bytes
          << ",\"fct_us\":" << ts_us(flow.end_ps - flow.start_ps) << "}}";

      for (std::size_t h = 0; h < slices.size(); ++h) {
        const HopSlice& s = slices[h];
        const std::uint64_t tid = base + 1 + static_cast<std::uint64_t>(h);
        out << sep << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << task
            << ",\"tid\":" << tid << ",\"args\":{\"name\":\"hop " << h << " "
            << json_escape(s.port) << "\"}}";
        out << sep << "{\"name\":\"" << json_escape(s.port)
            << "\",\"ph\":\"X\",\"pid\":" << task << ",\"tid\":" << tid
            << ",\"ts\":" << ts_us(s.t_first_in_ps)
            << ",\"dur\":" << ts_us(s.t_last_out_ps - s.t_first_in_ps)
            << ",\"args\":{\"packets\":" << s.packets << ",\"marks\":" << s.marks
            << ",\"queue_peak_b\":" << s.queue_peak_bytes
            << ",\"dwell_us\":" << ts_us(s.dwell_ps) << "}}";
      }
    }
  }
  out << "\n]}\n";
}

void write_flight_pausetree_json(std::ostream& out) {
  const auto buffers = FlightStore::instance().snapshot();
  out << "{\"schema\":\"ecnd-flight-pausetree-v1\",\"tasks\":[";
  const char* task_sep = "\n";
  for (const auto& [task, buf] : buffers) {
    // Tree shape: depth (longest parent chain), fan-out, top offender flow.
    std::unordered_map<std::uint64_t, std::size_t> index;
    index.reserve(buf->pauses.size());
    for (std::size_t i = 0; i < buf->pauses.size(); ++i) {
      index.emplace(buf->pauses[i].pause_id, i);
    }
    std::vector<int> depth(buf->pauses.size(), 0);
    std::vector<int> children(buf->pauses.size(), 0);
    int max_depth = 0, max_children = 0, roots = 0;
    std::map<std::uint64_t, std::uint64_t> offender;
    for (std::size_t i = 0; i < buf->pauses.size(); ++i) {
      // Emission order is causal order (a parent pause precedes its children
      // in sim time), so one forward pass settles depths.
      const FlightPause& p = buf->pauses[i];
      const auto parent = index.find(p.parent_id);
      if (p.parent_id == 0 || parent == index.end()) {
        depth[i] = 1;
        ++roots;
      } else {
        depth[i] = depth[parent->second] + 1;
        max_children = std::max(max_children, ++children[parent->second]);
      }
      max_depth = std::max(max_depth, depth[i]);
      ++offender[p.trigger_flow];
    }
    std::uint64_t top_flow = 0, top_pauses = 0;
    for (const auto& [flow, count] : offender) {
      if (count > top_pauses) { top_flow = flow; top_pauses = count; }
    }

    out << task_sep << "{\"task\":" << task << ",\"depth\":" << max_depth
        << ",\"roots\":" << roots << ",\"max_children\":" << max_children
        << ",\"top_offender\":{\"flow\":" << top_flow << ",\"pauses\":"
        << top_pauses << "},\"nodes\":[";
    task_sep = ",\n";
    const char* sep = "\n";
    for (const FlightPause& p : buf->pauses) {
      out << sep << "{\"id\":" << p.pause_id << ",\"parent\":" << p.parent_id
          << ",\"t_ps\":" << p.t_ps << ",\"switch\":" << p.switch_id
          << ",\"ingress_port\":" << p.ingress_port
          << ",\"egress_port\":" << p.egress_port << ",\"egress\":\""
          << json_escape(p.egress_name)
          << "\",\"trigger_flow\":" << p.trigger_flow << "}";
      sep = ",\n";
    }
    out << "\n]}";
  }
  out << "\n]}\n";
}

void write_flight_files(const char* prefix) {
  const std::string p = prefix;
  write_export_file("ECND_FLIGHT", p + ".postcards.json",
                    &write_flight_postcards_json);
  write_export_file("ECND_FLIGHT", p + ".timeline.json",
                    &write_flight_timeline_json);
  write_export_file("ECND_FLIGHT", p + ".pausetree.json",
                    &write_flight_pausetree_json);
}

}  // namespace ecnd::obs

#else  // ECND_OBS_DISABLED

#include <ostream>

namespace ecnd::obs {

void write_flight_postcards_json(std::ostream& out) {
  out << "{\"schema\":\"ecnd-flight-postcards-v1\",\"sample_modulus\":0,"
      << "\"tasks\":[\n]}\n";
}
void write_flight_timeline_json(std::ostream& out) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n";
}
void write_flight_pausetree_json(std::ostream& out) {
  out << "{\"schema\":\"ecnd-flight-pausetree-v1\",\"tasks\":[\n]}\n";
}

}  // namespace ecnd::obs

#endif  // ECND_OBS_DISABLED
