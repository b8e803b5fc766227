#include "probes.hpp"

#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <fstream>
#include <queue>

namespace ecnd::bench {
namespace {

volatile double g_probe_sink = 0.0;

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

class TracedController final : public sim::RateController {
 public:
  TracedController(std::unique_ptr<sim::RateController> inner, ProtoStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  BitsPerSecond rate() const override {
    return timed_call(stats_.rate, [&] { return inner_->rate(); });
  }
  Bytes chunk_bytes() const override {
    return timed_call(stats_.chunk_bytes, [&] { return inner_->chunk_bytes(); });
  }
  bool burst_pacing() const override {
    return timed_call(stats_.burst_pacing,
                      [&] { return inner_->burst_pacing(); });
  }
  bool wants_rtt() const override {
    return timed_call(stats_.wants_rtt, [&] { return inner_->wants_rtt(); });
  }
  void on_bytes_sent(Bytes bytes, PicoTime now) override {
    timed_call(stats_.on_bytes_sent, [&] { inner_->on_bytes_sent(bytes, now); });
  }
  void on_cnp(PicoTime now) override {
    timed_call(stats_.on_cnp, [&] { inner_->on_cnp(now); });
  }
  void on_rtt_sample(PicoTime rtt, PicoTime now) override {
    timed_call(stats_.on_rtt, [&] { inner_->on_rtt_sample(rtt, now); });
  }

 private:
  std::unique_ptr<sim::RateController> inner_;
  ProtoStats& stats_;
};

double calibrate_clock_overhead_ns() {
  std::array<double, 257> samples{};
  for (double& s : samples) {
    const auto t0 = std::chrono::steady_clock::now();
    s = std::chrono::duration<double, std::nano>(
            std::chrono::steady_clock::now() - t0)
            .count();
  }
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

double wall_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
double thread_cpu_now_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_now_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double speed_probe_s() {
  constexpr int kEntries = 1 << 16;
  constexpr int kOps = 300000;
  std::uint64_t x = 0x9E3779B97F4A7C15u;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  };
  std::priority_queue<double> heap;
  for (int i = 0; i < kEntries; ++i) heap.push(next());
  const double t0 = thread_cpu_now_s();
  double sum = 0.0;
  for (int i = 0; i < kOps; ++i) {
    sum += heap.top();
    heap.pop();
    heap.push(next());
  }
  const double elapsed = thread_cpu_now_s() - t0;
  g_probe_sink = sum;  // keeps the loop from being optimized away
  return elapsed;
}

void reset_peak_rss() {
  // Return the allocator's free pages first, so the watermark restarts from
  // live memory and one heavy rep does not lift the peaks of those after it.
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across execve,
  // so it would report the launching process's footprint when that is larger,
  // and it cannot be reset.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

double clock_overhead_ns() {
  static const double overhead = calibrate_clock_overhead_ns();
  return overhead;
}

std::uint64_t ProtoStats::calls() const {
  return rate.calls + chunk_bytes.calls + burst_pacing.calls + wants_rtt.calls +
         on_bytes_sent.calls + on_cnp.calls + on_rtt.calls;
}

double ProtoStats::est_s() const {
  return rate.est_s() + chunk_bytes.est_s() + burst_pacing.est_s() +
         wants_rtt.est_s() + on_bytes_sent.est_s() + on_cnp.est_s() +
         on_rtt.est_s();
}

sim::RateControllerFactory traced_factory(sim::RateControllerFactory inner,
                                          ProtoStats& stats) {
  clock_overhead_ns();  // calibrate before the first timed call
  return [inner = std::move(inner), &stats](int active_flows) {
    return std::unique_ptr<sim::RateController>(
        std::make_unique<TracedController>(inner(active_flows), stats));
  };
}

int SpanRecorder::open(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.wall_start_s = wall_now_s();
  span.cpu_s = cpu_now();  // the start, until close() makes it a duration
  spans_.push_back(std::move(span));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void SpanRecorder::close(int span) {
  const double cpu = cpu_now();
  Span& s = spans_[static_cast<std::size_t>(span)];
  s.wall_end_s = wall_now_s();
  s.cpu_s = cpu - s.cpu_s;
  stack_.pop_back();
}

}  // namespace ecnd::bench
