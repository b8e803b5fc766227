// Differential-observability layer: sim-time metric snapshots (obs/snapshot)
// and the hierarchical profiler (obs/profile). Everything drives the layer
// programmatically (set_snapshot_enabled / set_profile_enabled) so the suite
// behaves the same with or without the ECND_* env knobs. The load-bearing
// promises under test: snapshot exports byte-identical at any thread count,
// profiler tree shape independent of nesting accidents (detached anchors,
// exception unwinding), folded values = deterministic hit counts. Every
// export file goes through obs/export_file.hpp, which reports a path it
// cannot open or a write that fails.

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/parallel.hpp"
#include "obs/export_file.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/snapshot.hpp"

namespace ecnd {
namespace {

/// Arm metrics for one test, disarm snapshot/profiler and clear on the way
/// out so leftover series/frames cannot leak into other obs tests.
class SnapProfFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_metrics_enabled(true);
    obs::reset();
  }
  void TearDown() override {
    obs::set_snapshot_enabled(false);
    obs::set_profile_enabled(false);
    obs::set_snapshot_interval(obs::kDefaultSnapshotInterval);
    obs::set_metrics_enabled(false);
    obs::reset();
  }

  static std::string metrics_ts_json() {
    std::ostringstream out;
    obs::write_metrics_ts_json(out);
    return out.str();
  }

  static std::string folded() {
    std::ostringstream out;
    obs::write_profile_folded(out);
    return out.str();
  }
};

TEST_F(SnapProfFixture, SnapshotExportIdenticalAcrossThreadCounts) {
  const obs::Counter c = obs::counter("test.snap.work");
  obs::set_snapshot_enabled(true);
  obs::set_snapshot_interval(1e-3);
  // Each sweep task replays the same little sim: counts between ticks at
  // 0, 1, 2, 3 ms of (fake) sim time. The series must come out a function of
  // the task index alone, whatever worker ran it.
  auto run = [&](std::size_t threads) {
    obs::reset();
    par::parallel_for_each(
        8,
        [&](std::size_t i) {
          for (int step = 0; step < 4; ++step) {
            c.add(i + 1);
            obs::snapshot_tick(step * 1e-3);
          }
        },
        threads);
    return metrics_ts_json();
  };
  const std::string serial = run(1);
  const std::string threaded = run(4);
  EXPECT_EQ(serial, threaded);
  EXPECT_NE(serial.find("ecnd-metrics-ts-v1"), std::string::npos) << serial;
  EXPECT_NE(serial.find("test.snap.work"), std::string::npos) << serial;
  // Counters export both the cumulative column and the per-interval rate.
  EXPECT_NE(serial.find("\"cum\""), std::string::npos) << serial;
  EXPECT_NE(serial.find("\"inc\""), std::string::npos) << serial;
}

TEST_F(SnapProfFixture, GaugeSeriesUseValuesColumnAndZeroSeriesAreOmitted) {
  const obs::Gauge g = obs::gauge("test.snap.depth_gauge");
  obs::counter("test.snap.never_touched");  // registered, never incremented
  obs::set_snapshot_enabled(true);
  obs::set_snapshot_interval(1e-3);
  par::parallel_for_each(
      2,
      [&](std::size_t i) {
        g.set_max((i + 1) * 10);
        obs::snapshot_tick(0.0);
        g.set_max((i + 1) * 100);
        obs::snapshot_tick(1e-3);
      },
      1);
  const std::string json = metrics_ts_json();
  EXPECT_NE(json.find("test.snap.depth_gauge"), std::string::npos) << json;
  EXPECT_NE(json.find("\"values\""), std::string::npos) << json;
  EXPECT_EQ(json.find("test.snap.never_touched"), std::string::npos)
      << "all-zero series must be omitted: " << json;
}

TEST_F(SnapProfFixture, SnapshotIdleWhenDisarmed) {
  const obs::Counter c = obs::counter("test.snap.disarmed");
  c.add(1);
  obs::snapshot_tick(0.0);  // sampler off: one relaxed load, no sample
  obs::snapshot_tick(1e-3);
  EXPECT_EQ(metrics_ts_json().find("test.snap.disarmed"), std::string::npos);
}

TEST_F(SnapProfFixture, FoldedStacksMergeNestedScopesByPath) {
  obs::set_profile_enabled(true);
  for (int i = 0; i < 2; ++i) {
    obs::ProfScope outer("test.prof.outer");
    { obs::ProfScope inner("test.prof.inner"); }
    { obs::ProfScope inner2("test.prof.inner2"); }
  }
  const std::string text = folded();
  // Values are hit counts (deterministic), one line per distinct stack.
  EXPECT_NE(text.find("test.prof.outer 2\n"), std::string::npos) << text;
  EXPECT_NE(text.find("test.prof.outer;test.prof.inner 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("test.prof.outer;test.prof.inner2 2\n"),
            std::string::npos)
      << text;
}

TEST_F(SnapProfFixture, DetachedScopesAnchorAtRootNotUnderTheirCaller) {
  obs::set_profile_enabled(true);
  {
    obs::ProfScope caller("test.prof.caller");
    obs::ProfScope task("test.prof.task_frame", obs::Anchor::kDetached);
    obs::ProfScope work("test.prof.task_work");
  }
  const std::string text = folded();
  EXPECT_NE(text.find("test.prof.task_frame;test.prof.task_work 1\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("test.prof.caller;test.prof.task_frame"),
            std::string::npos)
      << "detached frame must not inherit its caller's stack: " << text;
  // The caller's own frame still exists at the root.
  EXPECT_NE(text.find("test.prof.caller 1\n"), std::string::npos) << text;
}

TEST_F(SnapProfFixture, ScopesUnwindCorrectlyThroughExceptions) {
  obs::set_profile_enabled(true);
  try {
    obs::ProfScope a("test.prof.thrower");
    obs::ProfScope b("test.prof.thrown_inner");
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  { obs::ProfScope after("test.prof.after_throw"); }
  bool saw_after = false, saw_inner = false;
  for (const obs::ProfileNode& n : obs::profile_nodes()) {
    if (n.name == "test.prof.after_throw") {
      saw_after = true;
      // Unwinding popped both frames: the follow-up scope sits at the root,
      // not nested under the thrower's stack.
      EXPECT_EQ(n.depth, 0) << n.name;
      EXPECT_EQ(n.hits, 1u);
    }
    if (n.name == "test.prof.thrown_inner") {
      saw_inner = true;
      EXPECT_EQ(n.depth, 1) << "inner frame keeps its recorded nesting";
      EXPECT_EQ(n.hits, 1u);
    }
  }
  EXPECT_TRUE(saw_after);
  EXPECT_TRUE(saw_inner);
}

TEST_F(SnapProfFixture, LabeledScopedTimerFeedsHistogramAndTree) {
  const obs::Histogram h = obs::histogram("test.prof.timer_ns");
  obs::set_profile_enabled(true);
  { obs::ScopedTimer t(h, "test.prof.timed_region"); }
  bool saw = false;
  for (const obs::ProfileNode& n : obs::profile_nodes()) {
    if (n.name == "test.prof.timed_region") {
      saw = true;
      EXPECT_EQ(n.hits, 1u);
    }
  }
  EXPECT_TRUE(saw);
  std::ostringstream metrics;
  obs::dump_metrics_json(metrics);
  EXPECT_NE(metrics.str().find("test.prof.timer_ns"), std::string::npos);
}

TEST_F(SnapProfFixture, ProfilerIdleWhenDisarmed) {
  { obs::ProfScope never("test.prof.never_armed"); }
  EXPECT_EQ(folded().find("test.prof.never_armed"), std::string::npos);
}

TEST_F(SnapProfFixture, UnopenableExportPathsAreReported) {
  // An armed knob whose path cannot be opened must say so, as ECND_METRICS
  // and ECND_TRACE always did, rather than leave the user to find no file.
  const std::string dir = ::testing::TempDir() + "ecnd_no_such_export_dir";
  std::filesystem::remove_all(dir);
  const std::string prefix = dir + "/run";
  ::testing::internal::CaptureStderr();
  obs::write_metrics_ts_file(prefix.c_str());
  obs::write_profile_folded_file(prefix.c_str());
  obs::write_flight_files(prefix.c_str());
  const std::string err = ::testing::internal::GetCapturedStderr();
  for (const std::string& line :
       {"ECND_METRICS_TS path " + prefix + ".metrics_ts.json",
        "ECND_PROF path " + prefix + ".prof.folded",
        "ECND_FLIGHT path " + prefix + ".postcards.json",
        "ECND_FLIGHT path " + prefix + ".timeline.json",
        "ECND_FLIGHT path " + prefix + ".pausetree.json"}) {
    EXPECT_NE(err.find("[obs] cannot open " + line + "\n"), std::string::npos)
        << err;
  }
}

TEST(ObsExportFile, WriteThatFailsAfterOpenIsReported) {
  // /dev/full opens fine and fails every write: the stream goes bad during
  // the export, which an open check alone cannot see.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  ::testing::internal::CaptureStderr();
  const bool ok = obs::write_export_file(
      "ECND_TEST", "/dev/full",
      [](std::ostream& out) { out << std::string(1 << 16, 'x'); });
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_FALSE(ok);
  EXPECT_EQ(err, "[obs] write to ECND_TEST path /dev/full failed\n");
}

}  // namespace
}  // namespace ecnd
