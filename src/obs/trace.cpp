#include "obs/trace.hpp"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#include "obs/json_text.hpp"

namespace ecnd::obs {

#if !defined(ECND_OBS_DISABLED)

namespace detail {
std::atomic<bool> g_trace_on{false};
}  // namespace detail

namespace {

struct TraceEvent {
  double ts_us = 0.0;
  double value = 0.0;
  std::uint64_t id = 0;
  const char* name = "";
  char phase = 'i';
};

/// Fixed-capacity ring. Overflow overwrites the oldest record (the end of a
/// run is what post-mortems need) and counts the loss.
struct TraceBuffer {
  explicit TraceBuffer(std::size_t capacity) : cap(capacity) {
    ring.reserve(cap < 4096 ? cap : 4096);
  }
  void push(const TraceEvent& e) {
    if (ring.size() < cap) {
      ring.push_back(e);
    } else {
      ring[count % cap] = e;
    }
    ++count;
  }
  std::uint64_t dropped() const { return count > cap ? count - cap : 0; }

  std::vector<TraceEvent> ring;
  std::size_t cap;
  std::uint64_t count = 0;
};

/// Buffers keyed by task index; creation is rare (once per task) and locked,
/// writes go through a per-thread cached pointer. A buffer is only ever
/// written by the thread currently running its task — the sweep engine runs
/// each task on exactly one thread and joins workers before any export.
class Tracer {
 public:
  static Tracer& instance() {
    static Tracer* t = new Tracer;
    return *t;
  }

  TraceBuffer* buffer_for(std::uint32_t task) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = buffers_[task];
    if (!slot) slot = std::make_unique<TraceBuffer>(capacity_);
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

  std::vector<std::pair<std::uint32_t, std::uint64_t>> dropped_by_task() {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::uint32_t, std::uint64_t>> out;
    for (const auto& [task, buf] : buffers_) {
      if (const std::uint64_t dropped = buf->dropped()) {
        out.emplace_back(task, dropped);
      }
    }
    return out;
  }

  /// Snapshot pointers in task order (buffers are stable once created).
  std::vector<std::pair<std::uint32_t, const TraceBuffer*>> snapshot() {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::uint32_t, const TraceBuffer*>> out;
    out.reserve(buffers_.size());
    for (const auto& [task, buf] : buffers_) out.emplace_back(task, buf.get());
    return out;
  }

 private:
  Tracer() {
    if (const char* env = std::getenv("ECND_TRACE_CAP")) {
      char* end = nullptr;
      const unsigned long parsed = std::strtoul(env, &end, 10);
      if (end != env && *end == '\0' && parsed >= 1) capacity_ = parsed;
    }
  }

  std::mutex mutex_;
  std::map<std::uint32_t, std::unique_ptr<TraceBuffer>> buffers_;
  std::size_t capacity_ = 65536;
};

thread_local std::uint32_t t_task = 0;
thread_local TraceBuffer* t_buffer = nullptr;

void write_event(std::ostream& out, std::uint32_t task, const TraceEvent& e) {
  char buf[96];
  out << "{\"name\":\"" << json_escape(e.name) << "\",\"ph\":\"" << e.phase
      << "\",\"pid\":" << task << ",\"tid\":0";
  std::snprintf(buf, sizeof(buf), ",\"ts\":%.6f", e.ts_us);
  out << buf;
  if (e.phase == 'C') {
    std::snprintf(buf, sizeof(buf), ",\"args\":{\"value\":%.9g}}", e.value);
    out << buf;
  } else {
    std::snprintf(buf, sizeof(buf), ",\"s\":\"p\",\"args\":{\"v\":%.9g,\"id\":%llu}}",
                  e.value, static_cast<unsigned long long>(e.id));
    out << buf;
  }
}

}  // namespace

namespace detail {

void trace_push(const char* name, char phase, double ts_us, double value,
                std::uint64_t id) {
  if (!t_buffer) t_buffer = Tracer::instance().buffer_for(t_task);
  t_buffer->push({ts_us, value, id, name, phase});
}

void trace_reset() {
  Tracer::instance().clear();
  t_buffer = nullptr;
}

std::uint32_t current_task() { return t_task; }

}  // namespace detail

void set_trace_enabled(bool on) {
  detail::g_trace_on.store(on, std::memory_order_relaxed);
}

void set_trace_capacity(std::size_t events) {
  Tracer::instance().set_capacity(events);
}

TaskScope::TaskScope(std::uint32_t task) : prev_(t_task) {
  t_task = task;
  t_buffer = nullptr;
}

TaskScope::~TaskScope() {
  t_task = prev_;
  t_buffer = nullptr;
}

std::uint64_t trace_dropped_total() {
  return Tracer::instance().dropped_total();
}

std::vector<std::pair<std::uint32_t, std::uint64_t>> trace_dropped_by_task() {
  return Tracer::instance().dropped_by_task();
}

void write_trace_json(std::ostream& out) {
  const auto buffers = Tracer::instance().snapshot();
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  const char* sep = "\n";
  for (const auto& [task, buf] : buffers) {
    // Shared pid/tid namespace with the flight recorder's timeline.json:
    // pid = task index in both files, the tracer's instants/counters live on
    // tid 0 (the band [0, 16) is reserved for it) and flight flow lanes
    // start at tid 16 — so loading both files into one Perfetto session
    // renders coherent per-task tracks (OBSERVABILITY.md).
    out << sep
        << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << task
        << ",\"tid\":0,\"args\":{\"name\":\"task " << task << "\"}}";
    sep = ",\n";
    out << sep << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << task
        << ",\"tid\":0,\"args\":{\"name\":\"events\"}}";
    // Chronological order: a wrapped ring's oldest surviving record sits at
    // count % cap.
    const std::size_t n = buf->ring.size();
    const std::size_t start = buf->count > buf->cap
                                  ? static_cast<std::size_t>(buf->count % buf->cap)
                                  : 0;
    for (std::size_t k = 0; k < n; ++k) {
      out << sep;
      write_event(out, task, buf->ring[(start + k) % n]);
    }
    if (const std::uint64_t dropped = buf->dropped()) {
      out << sep << "{\"name\":\"trace.dropped\",\"ph\":\"i\",\"pid\":" << task
          << ",\"tid\":0,\"ts\":0.000000,\"s\":\"p\",\"args\":{\"v\":" << dropped
          << ",\"id\":0}}";
    }
  }
  out << "\n]}\n";
}

#else  // ECND_OBS_DISABLED

void write_trace_json(std::ostream& out) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n";
}

#endif  // ECND_OBS_DISABLED

}  // namespace ecnd::obs
