// ecnd_bench: runs one benchmark workload for a given time and writes the raw
// measurements as one JSON document on stdout. run.py builds this binary,
// runs it and turns the document into the benchmark's metrics.
//
//   ecnd_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end numbers: set-up is repeated and timed,
// then reps run untraced, each on fresh inputs drawn from the seed, until the
// time is up. --trace 1 measures the layers: each rep is a pair of runs on the
// seed's first input, one untraced and one traced (obs counters armed,
// protocol and fluid-model calls wrapped by the probes), so the pair also
// gives the tracing overhead.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel.hpp"
#include "obs/metrics.hpp"
#include "probes.hpp"
#include "workload/fct_stats.hpp"
#include "workloads.hpp"

using namespace ecnd;
using namespace ecnd::bench;

namespace {

constexpr int kMinReps = 3;
constexpr int kSetupWarmups = 5;  // set-up-only repetitions before the reps

using Fields = std::map<std::string, double>;

struct Rep {
  double setup_s = 0.0;
  double run_wall_s = 0.0;
  double run_cpu_s = 0.0;
  double work = 0.0;  ///< packet transmissions, or flows x RK4 steps
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::uint64_t run_allocs = 0;
  double peak_rss_mb = 0.0;
  double probe_s = 0.0;  ///< speed probe right after the rep
  Fields layers;  ///< per-layer numbers; see main() for how a pair merges
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Value of counter `name` in an obs::dump_metrics_json document (0 if the
// counter was never registered).
double obs_counter(const std::string& dump, const std::string& name) {
  const std::string key = "\"" + name + "\": ";
  const std::size_t at = dump.find(key);
  return at == std::string::npos
             ? 0.0
             : std::strtod(dump.c_str() + at + key.size(), nullptr);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// -- packet workloads -----------------------------------------------------------

Rep run_packet_rep(const std::vector<PacketCell>& cells, bool traced,
                   SpanRecorder& spans) {
  Rep rep;
  ProtoStats proto;
  if (traced) {
    obs::reset();
    obs::set_metrics_enabled(true);
  }
  const int workload_span = spans.open("workload");
  std::vector<PacketOutput> outputs;
  double proto_s_before = 0.0;
  Fields& L = rep.layers;
  for (const PacketCell& cell : cells) {
    const int cell_span = spans.open(std::string("cell ") +
                                     exp::protocol_key(cell.protocol));
    const int setup_span = spans.open("setup");
    auto scenario = build_packet_cell(cell, traced ? &proto : nullptr);
    spans.close(setup_span);
    const std::uint64_t allocs0 = allocations();
    const int run_span = spans.open("run");
    outputs.push_back(run_packet_cell(*scenario));
    spans.close(run_span);
    rep.run_allocs += allocations() - allocs0;
    spans.close(cell_span);

    const Span& setup = spans.spans()[setup_span];
    const Span& run = spans.spans()[run_span];
    rep.setup_s += setup.wall_end_s - setup.wall_start_s;
    rep.run_wall_s += run.wall_end_s - run.wall_start_s;
    rep.run_cpu_s += run.cpu_s;
    if (traced) {
      // Self time of the sim layer: the run span minus its proto calls.
      const double proto_s = proto.est_s() - proto_s_before;
      proto_s_before = proto.est_s();
      L["sim.self_cpu_s"] += run.cpu_s - proto_s;
    }
  }
  spans.close(workload_span);
  std::ostringstream dump;
  if (traced) {
    obs::dump_metrics_json(dump);
    obs::set_metrics_enabled(false);
  }

  std::vector<sim::FlowRecord> flows;
  for (const PacketOutput& out : outputs) {
    rep.work += static_cast<double>(out.pkt_tx);
    rep.attempted += static_cast<std::uint64_t>(out.generated);
    if (out.truncated > 0) {
      rep.failures.push_back(std::to_string(out.truncated) + " of " +
                             std::to_string(out.generated) + " flows truncated");
    }
    const auto failures = check_packet(out);
    rep.failed += static_cast<std::uint64_t>(out.truncated) + failures.size();
    rep.failures.insert(rep.failures.end(), failures.begin(), failures.end());
    if (!traced) continue;
    L["sim.events"] += static_cast<double>(out.events);
    L["sim.pkt_tx"] += static_cast<double>(out.pkt_tx);
    L["sim.ecn_marked"] += static_cast<double>(out.ecn_marked);
    L["sim.drops"] += static_cast<double>(out.drops);
    L["workload.flows_generated"] += out.generated;
    L["workload.flows_completed"] += static_cast<double>(out.completed.size());
    L["workload.flows_truncated"] += out.truncated;
    flows.insert(flows.end(), out.completed.begin(), out.completed.end());
  }
  if (!traced) return rep;

  L["sim.events_per_pkt_tx"] = ratio(L["sim.events"], L["sim.pkt_tx"]);
  L["sim.pfc_pause_frames"] = obs_counter(dump.str(), "sim.pfc_pause_frames");
  L["sim.ecmp_decisions"] = obs_counter(dump.str(), "sim.ecmp_decisions");
  L["proto.rate_calls"] = static_cast<double>(proto.rate.calls);
  L["proto.on_bytes_sent_calls"] = static_cast<double>(proto.on_bytes_sent.calls);
  L["proto.on_cnp_calls"] = static_cast<double>(proto.on_cnp.calls);
  L["proto.on_rtt_calls"] = static_cast<double>(proto.on_rtt.calls);
  L["proto.calls_per_pkt_tx"] =
      ratio(static_cast<double>(proto.calls()), L["sim.pkt_tx"]);
  L["proto.cpu_share"] = ratio(proto.est_s(), rep.run_cpu_s);
  // FCTs are simulated time: identical under any speed-only change.
  const auto small = workload::fcts_us(flows, kilobytes(100.0));
  if (!small.empty()) {
    const workload::FctSummary fct = workload::summarize(small);
    L["workload.fct_small_p50_us"] = fct.median_us;
    L["workload.fct_small_p99_us"] = fct.p99_us;
  }
  return rep;
}

// -- fluid workload ---------------------------------------------------------------

Rep run_fluid_rep(const std::vector<FluidCell>& cells, bool traced,
                  SpanRecorder& spans) {
  Rep rep;
  if (traced) {
    obs::reset();
    obs::set_metrics_enabled(true);
  }
  const int workload_span = spans.open("workload");
  const int setup_span = spans.open("setup");
  std::vector<FluidJob> jobs;
  for (const FluidCell& cell : cells) jobs.push_back(build_fluid_cell(cell));
  spans.close(setup_span);

  std::vector<FluidOutput> outputs(jobs.size());
  const std::uint64_t allocs0 = allocations();
  const int run_span = spans.open("run");
  const par::IsolationReport sweep = par::parallel_for_each_isolated(
      jobs.size(),
      [&](std::size_t i, int) { outputs[i] = run_fluid_cell(jobs[i], traced); },
      par::FaultPolicy{1}, kSweepThreads);
  spans.close(run_span);
  rep.run_allocs = allocations() - allocs0;
  spans.close(workload_span);

  const Span& setup = spans.spans()[setup_span];
  const Span& run = spans.spans()[run_span];
  rep.setup_s = setup.wall_end_s - setup.wall_start_s;
  rep.run_wall_s = run.wall_end_s - run.wall_start_s;
  rep.run_cpu_s = run.cpu_s;

  std::vector<bool> quarantined(jobs.size(), false);
  for (const par::TaskFailureRecord& f : sweep.failures) {
    quarantined[f.index] = true;
    rep.failures.push_back("quarantined cell " + std::to_string(f.index) + ": " +
                           f.message);
  }
  rep.attempted = jobs.size();
  rep.failed = sweep.failures.size();
  Fields& L = rep.layers;
  double large_rhs_s = 0, large_cpu_s = 0, large_flow_rhs = 0;
  double small_rhs_s = 0, small_cpu_s = 0;
  int large_cells = 0, small_cells = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (quarantined[i]) continue;
    rep.work += static_cast<double>(jobs[i].flow_steps());
    const auto failures = check_fluid(jobs[i], outputs[i]);
    if (!failures.empty()) ++rep.failed;
    rep.failures.insert(rep.failures.end(), failures.begin(), failures.end());
    const FluidOutput& out = outputs[i];
    if (jobs[i].cell.large) {
      ++large_cells;
      large_cpu_s += out.cpu_s;
      large_rhs_s += out.rhs.est_s();
      large_flow_rhs += static_cast<double>(out.rhs.calls) *
                        jobs[i].model->num_flows();
    } else {
      ++small_cells;
      small_cpu_s += out.cpu_s;
      small_rhs_s += out.rhs.est_s();
    }
  }
  // Per-cell CPU is reported from both runs of a pair; main() keeps the
  // untraced one.
  L["fluid.large_n_cell_s"] = ratio(large_cpu_s, large_cells);
  L["fluid.small_n_cell_s"] = ratio(small_cpu_s, small_cells);
  L["core.par.tasks"] = static_cast<double>(sweep.timing.tasks);
  L["core.par.speedup"] = sweep.timing.speedup();
  L["core.par.slowest_task_s"] = sweep.timing.task_max_s;
  if (!traced) return rep;

  std::ostringstream os;
  obs::dump_metrics_json(os);
  obs::set_metrics_enabled(false);
  const std::string dump = os.str();
  const double steps = obs_counter(dump, "fluid.rk4_steps");
  const double evals = obs_counter(dump, "fluid.rhs_evals");
  const double lookups = obs_counter(dump, "fluid.delayed_lookups");
  L["fluid.rk4_steps"] = steps;
  L["fluid.step_retries"] = obs_counter(dump, "fluid.step_retries");
  L["fluid.rhs_evals_per_step"] = ratio(evals, steps);
  L["fluid.delayed_lookups_per_rhs"] = ratio(lookups, evals);
  L["fluid.lookup_hint_hit_ratio"] =
      ratio(obs_counter(dump, "fluid.lookup_hint_hits"), lookups);
  L["fluid.ns_per_flow_rhs"] = ratio(large_rhs_s * 1e9, large_flow_rhs);
  L["fluid.rhs_share_large_n"] = ratio(large_rhs_s, large_cpu_s);
  L["fluid.rhs_share_small_n"] = ratio(small_rhs_s, small_cpu_s);
  return rep;
}

// -- command line -----------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      args.trace = std::string(value) == "1";
      if (!args.trace && std::string(value) != "0") return false;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: ecnd_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n";
    return 2;
  }
  const bool fluid = !fluid_cells(args.workload, 0).empty();
  if (!fluid && packet_cells(args.workload, 0).empty()) {
    std::cerr << "ecnd_bench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  // Rep r draws its inputs from task_seed(seed, r); traced pairs all use r=0.
  auto run_rep = [&](int r, bool traced, SpanRecorder& spans) {
    const std::uint64_t seed = par::task_seed(args.seed, static_cast<std::uint64_t>(r));
    reset_peak_rss();
    Rep rep = fluid ? run_fluid_rep(fluid_cells(args.workload, seed), traced, spans)
                    : run_packet_rep(packet_cells(args.workload, seed), traced, spans);
    rep.peak_rss_mb = peak_rss_mb();
    if (fluid) {
      // The sweep's CPU time comes from its workers: probe the speed of as
      // many threads running at once.
      std::vector<double> probes(kSweepThreads);
      par::parallel_for_each(
          probes.size(), [&](std::size_t i) { probes[i] = speed_probe_s(); },
          kSweepThreads);
      for (double p : probes) rep.probe_s += p / static_cast<double>(probes.size());
    } else {
      rep.probe_s = speed_probe_s();
    }
    return rep;
  };

  SpanRecorder spans(fluid);
  std::vector<double> setup_samples;
  if (!args.trace) {
    // Set-up alone, a few times: it is short, so its median needs samples.
    for (int i = 0; i < kSetupWarmups; ++i) {
      const double t0 = wall_now_s();
      if (fluid) {
        for (const FluidCell& c : fluid_cells(args.workload, args.seed)) {
          build_fluid_cell(c);
        }
      } else {
        for (const PacketCell& c : packet_cells(args.workload, args.seed)) {
          build_packet_cell(c, nullptr);
        }
      }
      setup_samples.push_back(wall_now_s() - t0);
    }
  }

  std::vector<Rep> reps;       // untraced
  std::vector<Rep> traced;     // paired with reps[i] in trace mode
  const double t_start = wall_now_s();
  for (int r = 0; r < kMinReps || wall_now_s() - t_start < args.seconds; ++r) {
    SpanRecorder untraced_spans(fluid);
    reps.push_back(run_rep(args.trace ? 0 : r, false, untraced_spans));
    setup_samples.push_back(reps.back().setup_s);
    if (args.trace) traced.push_back(run_rep(0, true, spans));
  }

  std::ostringstream out;
  out << "{\"schema\": \"ecnd-bench-raw-v1\",\n"
      << " \"stamp\": {\"build_type\": " << json_string(ECND_BENCH_BUILD_TYPE)
      << ", \"compiler\": " << json_string(ECND_BENCH_COMPILER)
      << ", \"cxx_flags\": " << json_string(ECND_BENCH_CXX_FLAGS)
      << ", \"nproc\": " << std::thread::hardware_concurrency() << "},\n"
      << " \"workload\": " << json_string(args.workload)
      << ", \"seed\": " << args.seed << ", \"trace\": " << (args.trace ? 1 : 0)
      << ",\n \"setup_s\": [";
  for (std::size_t i = 0; i < setup_samples.size(); ++i) {
    out << (i ? ", " : "") << json_number(setup_samples[i]);
  }
  out << "],\n \"reps\": [";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& rep = reps[i];
    out << (i ? ",\n  " : "\n  ") << "{\"run_wall_s\": "
        << json_number(rep.run_wall_s)
        << ", \"run_cpu_s\": " << json_number(rep.run_cpu_s)
        << ", \"work\": " << json_number(rep.work)
        << ", \"peak_rss_mb\": " << json_number(rep.peak_rss_mb)
        << ", \"probe_s\": " << json_number(rep.probe_s)
        << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
        << ", \"failures\": [";
    for (std::size_t f = 0; f < rep.failures.size(); ++f) {
      out << (f ? ", " : "") << json_string(rep.failures[f]);
    }
    out << "]";
    if (args.trace) {
      // Layer numbers of the pair: counts and shares from the traced run,
      // costs per unit of work from the untraced one.
      const Rep& t = traced[i];
      Fields layers = t.layers;
      for (const char* key : {"fluid.large_n_cell_s", "fluid.small_n_cell_s",
                              "core.par.speedup", "core.par.slowest_task_s"}) {
        if (rep.layers.count(key)) layers[key] = rep.layers.at(key);
      }
      if (layers.count("sim.events")) {
        layers["sim.cpu_ns_per_event"] =
            ratio(rep.run_cpu_s * 1e9, layers["sim.events"]);
        layers["sim.allocs_per_event"] =
            ratio(static_cast<double>(rep.run_allocs), layers["sim.events"]);
      }
      layers["obs.trace_overhead_frac"] = t.run_cpu_s / rep.run_cpu_s - 1.0;
      out << ", \"traced_failed\": " << t.failed << ", \"layers\": {";
      const char* sep = "";
      for (const auto& [key, value] : layers) {
        out << sep << json_string(key) << ": " << json_number(value);
        sep = ", ";
      }
      out << "}";
    }
    out << "}";
  }
  out << "],\n \"spans\": [";
  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    const Span& s = spans.spans()[i];
    out << (i ? ",\n  " : "\n  ") << "{\"name\": " << json_string(s.name)
        << ", \"parent\": " << s.parent
        << ", \"start_s\": " << json_number(s.wall_start_s - t_start)
        << ", \"end_s\": " << json_number(s.wall_end_s - t_start)
        << ", \"cpu_s\": " << json_number(s.cpu_s) << "}";
  }
  out << "]}\n";
  std::cout << out.str();
  return 0;
}
