// Per-task record store (src/obs/task_store.hpp): task-ordered snapshots,
// the generation-stamped thread-local cache, and — through the three modules
// built on it (tracer, flight recorder, metric snapshots) — exports that a
// reset leaves exactly as a fresh process would write them.

#include "obs/task_store.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "proto/factories.hpp"
#include "sim/network.hpp"

namespace ecnd {
namespace {

struct Rec {
  explicit Rec(std::size_t capacity) : cap(capacity) {}
  std::vector<int> values;
  std::size_t cap;
};

TEST(TaskStore, SnapshotIsInTaskOrderWithTheCapacityAtCreation) {
  obs::TaskStore<Rec> store(8);
  {
    const obs::TaskScope scope(3);
    store.current().values.push_back(3);
  }
  store.set_capacity(0);  // clamped to 1, applies to buffers created later
  {
    const obs::TaskScope scope(1);
    store.current().values.push_back(1);
  }
  store.current().values.push_back(0);  // task 0: outside any scope

  const auto buffers = store.snapshot();
  ASSERT_EQ(buffers.size(), 3u);
  EXPECT_EQ(buffers[0].first, 0u);
  EXPECT_EQ(buffers[1].first, 1u);
  EXPECT_EQ(buffers[2].first, 3u);
  EXPECT_EQ(buffers[0].second->cap, 1u);
  EXPECT_EQ(buffers[1].second->cap, 1u);
  EXPECT_EQ(buffers[2].second->cap, 8u);
  EXPECT_EQ(buffers[2].second->values, std::vector<int>{3});
}

TEST(TaskStore, OnSwitchSeesTheBufferThisThreadWroteLast) {
  obs::TaskStore<Rec> store(4);
  std::vector<const Rec*> seen;
  const auto record = [&](Rec* prev) { seen.push_back(prev); };
  Rec* task1 = nullptr;
  {
    const obs::TaskScope scope(1);
    task1 = &store.current(record);
    store.current(record);  // cache hit: no switch
  }
  {
    const obs::TaskScope scope(2);
    store.current(record);
  }
  store.clear();
  {
    const obs::TaskScope scope(2);
    store.current(record);
  }
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], nullptr);  // first write on this thread
  EXPECT_EQ(seen[1], task1);    // moved from task 1 to task 2
  EXPECT_EQ(seen[2], nullptr);  // clear() dropped the task-2 buffer
}

TEST(TaskStore, ClearOnOneThreadInvalidatesAnotherThreadsCache) {
  obs::TaskStore<Rec> store(4);
  std::promise<void> wrote, cleared;
  std::thread writer([&] {
    const obs::TaskScope scope(5);
    store.current().values.push_back(1);
    wrote.set_value();
    cleared.get_future().wait();
    // Same thread, same task: only the generation says the cached pointer
    // is gone.
    store.current().values.push_back(2);
  });
  wrote.get_future().wait();
  store.clear();
  cleared.set_value();
  writer.join();

  const auto buffers = store.snapshot();
  ASSERT_EQ(buffers.size(), 1u);
  EXPECT_EQ(buffers[0].first, 5u);
  EXPECT_EQ(buffers[0].second->values, std::vector<int>{2});
}

/// A 2-sender DCQCN incast: ECN marks and queue tracks for the tracer,
/// per-hop postcards for the flight recorder, sim-clock ticks for the
/// metric snapshots.
void run_incast(std::uint64_t seed, double flow_kb) {
  sim::Network net(seed);
  sim::StarConfig config;
  config.senders = 2;
  sim::Star star = sim::make_star(net, config);
  for (sim::Host* s : star.senders) {
    s->set_controller_factory(
        proto::make_dcqcn_factory(net.sim(), proto::DcqcnRpParams{}));
    s->start_flow(star.receiver->id(), kilobytes(flow_kb));
  }
  net.sim().run_until(seconds(0.002));
}

std::string exports() {
  std::ostringstream trace, postcards, timeline, pausetree, metrics_ts;
  obs::write_trace_json(trace);
  obs::write_flight_postcards_json(postcards);
  obs::write_flight_timeline_json(timeline);
  obs::write_flight_pausetree_json(pausetree);
  obs::write_metrics_ts_json(metrics_ts);
  return "trace\n" + trace.str() + "postcards\n" + postcards.str() +
         "timeline\n" + timeline.str() + "pausetree\n" + pausetree.str() +
         "metrics_ts\n" + metrics_ts.str();
}

void sweep(std::uint64_t seed_base, double flow_kb, std::size_t threads) {
  par::parallel_for_each(
      4, [&](std::size_t i) { run_incast(seed_base + i, flow_kb); }, threads);
}

class TaskStoreExports : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    obs::set_trace_enabled(true);
    obs::set_flight_enabled(true);
    obs::set_flight_sample(1);
    obs::set_snapshot_enabled(true);  // also arms metric counting
    obs::set_snapshot_interval(1e-4);
    obs::reset();
  }
  void TearDown() override {
    obs::set_trace_enabled(false);
    obs::set_flight_enabled(false);
    obs::set_flight_sample(obs::kDefaultFlightSample);
    obs::set_snapshot_enabled(false);
    obs::set_snapshot_interval(obs::kDefaultSnapshotInterval);
    obs::set_metrics_enabled(false);
    obs::reset();
  }
};

TEST_P(TaskStoreExports, ResetThenReusedTaskIndicesMatchAFreshSweep) {
  const std::size_t threads = GetParam();
  // A different first sweep over the same task indices: anything it leaves
  // behind (a buffer, a cached pointer, a shard count) shows in the diff.
  sweep(100, 96.0, threads);
  obs::reset();
  sweep(1, 64.0, threads);
  const std::string after_reset = exports();

  obs::reset();
  sweep(1, 64.0, threads);
  const std::string fresh = exports();

  EXPECT_NE(after_reset.find("\"pid\":4"), std::string::npos);
  EXPECT_NE(after_reset.find("\"t_in_ps\":"), std::string::npos);
  EXPECT_NE(after_reset.find("\"task\": 4"), std::string::npos);
  EXPECT_EQ(after_reset, fresh);
}

INSTANTIATE_TEST_SUITE_P(Threads, TaskStoreExports, ::testing::Values(1u, 4u));

}  // namespace
}  // namespace ecnd
