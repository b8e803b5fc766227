// Determinism suite for the parallel sweep engine (PR 2): the same sweep run
// at ECND_THREADS=1 and ECND_THREADS=8 must produce bit-identical CSV, both
// for the deterministic fluid layer and for the seeded packet simulator.
// Thread count may change *scheduling*, never *results* — per-task seeds are
// derived from (base_seed, task_index), results land in pre-sized slots, and
// rows print in grid order.
//
// Each sweep helper also appends the observability layer's metrics JSON dump
// to the compared blob, so the same equality assertions additionally pin down
// that per-thread metric shards merge to bit-identical totals at any thread
// count (see OBSERVABILITY.md).

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/parallel.hpp"
#include "core/table.hpp"
#include "exp/scenarios.hpp"
#include "fluid/dcqcn_model.hpp"
#include "fluid/fluid_model.hpp"
#include "obs/analyzers.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"

namespace ecnd {
namespace {

/// Arm + zero the metrics registry for the duration of one sweep and return
/// the end-of-sweep JSON dump. Restores the previous enable state so the
/// suite behaves the same whether or not ECND_METRICS armed it globally.
class MetricsCapture {
 public:
  MetricsCapture() : was_enabled_(obs::metrics_enabled()) {
    obs::set_metrics_enabled(true);
    obs::reset();
  }
  ~MetricsCapture() { obs::set_metrics_enabled(was_enabled_); }

  std::string dump() const {
    std::ostringstream out;
    obs::dump_metrics_json(out);
    return out.str();
  }

 private:
  bool was_enabled_;
};

/// Fluid phase-margin/queue sweep over (N, feedback delay), rendered as CSV
/// with the sweep's metrics dump appended.
std::string fluid_sweep_csv(std::size_t threads) {
  MetricsCapture metrics;
  struct Cell {
    int num_flows = 0;
    double delay_us = 0.0;
  };
  std::vector<Cell> grid;
  for (int n : {2, 4, 10}) {
    for (double delay_us : {4.0, 50.0}) grid.push_back({n, delay_us});
  }

  struct Reduced {
    double queue_mean_kb = 0.0;
    double queue_std_kb = 0.0;
    double rate0_gbps = 0.0;
  };
  const std::vector<Reduced> rows = par::parallel_map(
      grid,
      [](const Cell& cell) {
        fluid::DcqcnFluidParams p;
        p.num_flows = cell.num_flows;
        p.feedback_delay = cell.delay_us * 1e-6;
        fluid::DcqcnFluidModel model(p);
        const fluid::FluidRun run = fluid::simulate(model, 0.06, 2e-4);
        Reduced r;
        r.queue_mean_kb = run.queue_bytes.mean_over(0.03, 0.06) / 1e3;
        r.queue_std_kb = run.queue_bytes.stddev_over(0.03, 0.06) / 1e3;
        r.rate0_gbps = run.flow_rate_gbps[0].mean_over(0.03, 0.06);
        return r;
      },
      threads);

  Table table({"N", "delay_us", "queue_mean_kb", "queue_std_kb", "rate0_gbps"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    table.row()
        .cell(static_cast<long long>(grid[i].num_flows))
        .cell(grid[i].delay_us, 1)
        .cell(rows[i].queue_mean_kb, 6)
        .cell(rows[i].queue_std_kb, 6)
        .cell(rows[i].rate0_gbps, 6);
  }
  std::ostringstream csv;
  table.print_csv(csv);
  return csv.str() + "\n# metrics\n" + metrics.dump();
}

/// Packet-level FCT sweep over (load, protocol); each task's simulator seed
/// is derived with par::task_seed so the RNG stream is a function of the
/// grid index, not of which worker thread claimed the task.
std::string fct_sweep_csv(std::size_t threads) {
  MetricsCapture metrics;
  struct Cell {
    double load = 0.0;
    exp::Protocol protocol = exp::Protocol::kDcqcn;
  };
  std::vector<Cell> grid;
  for (double load : {0.3, 0.6}) {
    for (exp::Protocol protocol :
         {exp::Protocol::kDcqcn, exp::Protocol::kPatchedTimely}) {
      grid.push_back({load, protocol});
    }
  }

  constexpr std::uint64_t kBaseSeed = 20161212;
  const std::vector<exp::FctResult> rows = par::parallel_map(
      grid,
      [&grid](const Cell& cell) {
        exp::FctConfig config;
        config.protocol = cell.protocol;
        config.load = cell.load;
        config.num_flows = 120;
        config.pairs = 4;
        const std::size_t index =
            static_cast<std::size_t>(&cell - grid.data());
        config.seed = par::task_seed(kBaseSeed, index);
        return exp::run_fct_experiment(config);
      },
      threads);

  Table table({"load", "protocol", "small_mean_us", "small_p99_us",
               "overall_mean_us", "utilization", "drops"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    table.row()
        .cell(grid[i].load, 2)
        .cell(exp::protocol_name(grid[i].protocol))
        .cell(rows[i].small.mean_us, 6)
        .cell(rows[i].small.p99_us, 6)
        .cell(rows[i].overall.mean_us, 6)
        .cell(rows[i].utilization, 6)
        .cell(static_cast<long long>(rows[i].drops));
  }
  std::ostringstream csv;
  table.print_csv(csv);
  return csv.str() + "\n# metrics\n" + metrics.dump();
}

TEST(Determinism, FluidSweepIsBitIdenticalAcrossThreadCounts) {
  const std::string serial = fluid_sweep_csv(1);
  const std::string parallel = fluid_sweep_csv(8);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(Determinism, FluidSweepIsRepeatable) {
  EXPECT_EQ(fluid_sweep_csv(8), fluid_sweep_csv(8));
}

TEST(Determinism, PacketFctSweepIsBitIdenticalAcrossThreadCounts) {
  const std::string serial = fct_sweep_csv(1);
  const std::string parallel = fct_sweep_csv(8);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

/// Render a RunManifest for a parallel fluid sweep, with analyzer-derived
/// observables, at a given worker count. The manifest contract (see
/// obs/manifest.hpp) says the rendered JSON is a function of the scenario
/// only — never of ECND_THREADS — so the blobs below must be bit-identical.
std::string sweep_manifest_json(std::size_t threads) {
  MetricsCapture metrics;
  const std::vector<int> flow_counts = {2, 4, 10};

  struct Reduced {
    double queue_mean_kb = 0.0;
    double rate0_gbps = 0.0;
    obs::SettlingResult settle;
  };
  const std::vector<Reduced> rows = par::parallel_map(
      flow_counts,
      [](int n) {
        fluid::DcqcnFluidParams p;
        p.num_flows = n;
        fluid::DcqcnFluidModel model(p);
        const fluid::FluidRun run = fluid::simulate(model, 0.06, 2e-4);
        Reduced r;
        r.queue_mean_kb = run.queue_bytes.mean_over(0.03, 0.06) / 1e3;
        r.rate0_gbps = run.flow_rate_gbps[0].mean_over(0.03, 0.06);
        obs::SettlingParams sp;
        sp.target = r.queue_mean_kb * 1e3;
        sp.epsilon = 0.3 * sp.target;
        sp.min_dwell = 0.012;
        r.settle = obs::settling_time(run.queue_bytes, sp, 0.0, 0.06);
        return r;
      },
      threads);

  obs::RunManifest m("test_determinism");
  m.param("flow_counts", "2,4,10").param("duration_s", 0.06);
  for (std::size_t i = 0; i < flow_counts.size(); ++i) {
    const std::string key = ".n" + std::to_string(flow_counts[i]);
    m.observable("queue_mean_kb" + key, rows[i].queue_mean_kb);
    m.observable("rate0_gbps" + key, rows[i].rate0_gbps);
    m.observable("queue_settled" + key, rows[i].settle.settled);
    m.observable("queue_settle_s" + key,
                 rows[i].settle.settled
                     ? std::optional<double>(rows[i].settle.settle_t)
                     : std::nullopt);
  }
  return m.to_json();
}

TEST(Determinism, ManifestIsBitIdenticalAcrossThreadCounts) {
  const std::string serial = sweep_manifest_json(1);
  const std::string parallel = sweep_manifest_json(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(Determinism, ManifestIsRepeatable) {
  EXPECT_EQ(sweep_manifest_json(4), sweep_manifest_json(4));
}

TEST(Determinism, ManifestCarriesSchemaAndDigest) {
  const std::string blob = sweep_manifest_json(2);
  EXPECT_NE(blob.find("\"ecnd-manifest-v1\""), std::string::npos);
  EXPECT_NE(blob.find("\"metrics_digest\""), std::string::npos);
  EXPECT_NE(blob.find("\"queue_mean_kb.n10\""), std::string::npos);
}

TEST(Determinism, MetricsDumpCoversPacketSweep) {
  // The compared blobs above contain the metrics dump; make sure it is not
  // vacuous — a packet sweep must have counted simulator events.
  const std::string blob = fct_sweep_csv(2);
  EXPECT_NE(blob.find("\"sim.events\""), std::string::npos);
  EXPECT_NE(blob.find("\"ecnd-metrics-v1\""), std::string::npos);
}

}  // namespace
}  // namespace ecnd
