#pragma once
// Measurement probes of the benchmark: host clocks, the machine-speed probe,
// the allocation counter, coarse spans, and forwarding decorators that count
// and time the calls a layer makes into sim::RateController (proto) and
// fluid::FluidModel (fluid).
//
// Everything here measures a layer from outside, through its public
// interface. A decorator forwards every virtual unchanged, so a wrapped run
// simulates exactly what an unwrapped run does (test_bench.cpp checks it bit
// for bit).

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fluid/fluid_model.hpp"
#include "sim/rate_controller.hpp"

namespace ecnd::bench {

// -- clocks -------------------------------------------------------------------

double wall_now_s();          ///< steady clock
double thread_cpu_now_s();    ///< CLOCK_THREAD_CPUTIME_ID
double process_cpu_now_s();   ///< CLOCK_PROCESS_CPUTIME_ID
double peak_rss_mb();         ///< VmHWM: peak RSS since the last reset
void reset_peak_rss();        ///< trim the heap, restart VmHWM from RSS

/// Machine-speed probe: CPU seconds of a fixed kernel that does not use the
/// program under test (push/pop on a 64K-entry binary heap of doubles, the
/// event queue's access pattern). On a shared VM, host CPU time drifts by
/// tens of percent over minutes as neighbours come and go. The probe slows
/// with it, so run.py scales host times to a reference speed with it.
double speed_probe_s();

/// Heap allocations (global operator new calls) made by this process so far.
/// Defined in alloc.cpp, next to the counting operator new it reads.
std::uint64_t allocations();

// -- sampled call timing --------------------------------------------------------

/// Hot calls are timed on a deterministic 1-in-2^kSampleShift sample (by call
/// index) and the sampled time is scaled up to the call count, so a traced
/// run pays for the clock on few calls. The clock's own cost, calibrated once
/// per process, is subtracted from every sample.
inline constexpr int kSampleShift = 5;

/// Nanoseconds one empty steady_clock-timed region costs (median of many).
double clock_overhead_ns();

struct CallStats {
  std::uint64_t calls = 0;
  std::uint64_t sampled = 0;
  double sampled_ns = 0.0;

  bool sample_this() const {
    return (calls & ((std::uint64_t{1} << kSampleShift) - 1)) == 0;
  }
  /// Estimated total time of all calls, in seconds.
  double est_s() const {
    return sampled == 0 ? 0.0
                        : sampled_ns * 1e-9 * static_cast<double>(calls) /
                              static_cast<double>(sampled);
  }
};

/// Count one call and, on sampled calls, time `fn`.
template <typename Fn>
decltype(auto) timed_call(CallStats& stats, Fn&& fn) {
  const bool sample = stats.sample_this();
  ++stats.calls;
  if (!sample) return fn();
  struct Stop {
    CallStats& s;
    std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();
    ~Stop() {
      const double ns = std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() - t0)
                            .count() -
                        clock_overhead_ns();
      s.sampled_ns += ns > 0.0 ? ns : 0.0;
      ++s.sampled;
    }
  } stop{stats};
  return fn();
}

// -- proto decorator ------------------------------------------------------------

struct ProtoStats {
  CallStats rate, chunk_bytes, burst_pacing, wants_rtt;
  CallStats on_bytes_sent, on_cnp, on_rtt;

  std::uint64_t calls() const;
  double est_s() const;
};

/// Wrap a controller factory so every controller it makes reports into
/// `stats` (which must outlive the controllers).
sim::RateControllerFactory traced_factory(sim::RateControllerFactory inner,
                                          ProtoStats& stats);

// -- fluid decorator ------------------------------------------------------------

/// Forwards every FluidModel/DdeSystem virtual to `inner`; counts and times
/// rhs(). Not thread-safe: one wrapper per concurrently integrated cell.
class TracedFluidModel final : public fluid::FluidModel {
 public:
  explicit TracedFluidModel(const fluid::FluidModel& inner) : inner_(inner) {
    clock_overhead_ns();  // calibrate before the first timed call
  }

  const CallStats& rhs_stats() const { return rhs_; }

  int num_flows() const override { return inner_.num_flows(); }
  std::size_t queue_index() const override { return inner_.queue_index(); }
  std::size_t rate_index(int flow) const override {
    return inner_.rate_index(flow);
  }
  std::vector<double> initial_state() const override {
    return inner_.initial_state();
  }
  double suggested_dt() const override { return inner_.suggested_dt(); }
  double mtu_bytes() const override { return inner_.mtu_bytes(); }
  double capacity_pps() const override { return inner_.capacity_pps(); }

  std::size_t dim() const override { return inner_.dim(); }
  void rhs(double t, std::span<const double> x, const fluid::History& past,
           std::span<double> dxdt) const override {
    timed_call(rhs_, [&] { inner_.rhs(t, x, past, dxdt); });
  }
  void clamp(std::span<double> x) const override { inner_.clamp(x); }
  double max_delay() const override { return inner_.max_delay(); }
  double max_row_delay() const override { return inner_.max_row_delay(); }
  std::pair<std::size_t, std::size_t> deep_vars() const override {
    return inner_.deep_vars();
  }

 private:
  const fluid::FluidModel& inner_;
  mutable CallStats rhs_;
};

// -- spans ------------------------------------------------------------------------

/// A coarse span: one of workload / cell / setup / run, recorded from the
/// benchmark's own code around calls into the layers. Kept in memory and
/// written out with the result.
struct Span {
  std::string name;
  int parent = -1;  ///< index into the recorder's spans; -1 = root
  double wall_start_s = 0.0;
  double wall_end_s = 0.0;
  double cpu_s = 0.0;  ///< CPU time of the thread (or process) inside it
};

class SpanRecorder {
 public:
  /// `process_cpu` selects CLOCK_PROCESS_CPUTIME_ID (multi-threaded work)
  /// over CLOCK_THREAD_CPUTIME_ID.
  explicit SpanRecorder(bool process_cpu) : process_cpu_(process_cpu) {}

  int open(std::string name);
  void close(int span);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double cpu_now() const {
    return process_cpu_ ? process_cpu_now_s() : thread_cpu_now_s();
  }

  bool process_cpu_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace ecnd::bench
