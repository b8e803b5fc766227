#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/hash.hpp"
#include "sim/flow_table.hpp"

namespace ecnd::sim {
namespace {

// Deterministic 64-bit stream for driving churn (no <random> needed).
std::uint64_t splitmix(std::uint64_t& state) {
  state += kGoldenGamma;
  return splitmix64_mix(state);
}

TEST(FlowTable, InsertFindErase) {
  FlowTable<int> table;
  EXPECT_EQ(table.size(), 0u);
  table.emplace(7) = 70;
  table.emplace(9) = 90;
  ASSERT_NE(table.find(7), nullptr);
  EXPECT_EQ(*table.find(7), 70);
  EXPECT_EQ(*table.find(9), 90);
  EXPECT_EQ(table.find(8), nullptr);
  EXPECT_TRUE(table.erase(7));
  EXPECT_FALSE(table.erase(7));
  EXPECT_EQ(table.find(7), nullptr);
  EXPECT_EQ(*table.find(9), 90);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTable, ChurnMatchesUnorderedMapReference) {
  FlowTable<std::uint64_t> table;
  std::unordered_map<std::uint64_t, std::uint64_t> reference;
  std::uint64_t rng = 20161212;
  for (int op = 0; op < 20000; ++op) {
    // Small key space (1..64) forces heavy insert/erase collisions, which is
    // what exercises linear probing and backward-shift deletion.
    const std::uint64_t key = 1 + (splitmix(rng) & 63);
    const std::uint64_t action = splitmix(rng) % 3;
    if (action == 0) {
      // Insert if absent.
      if (reference.find(key) == reference.end()) {
        const std::uint64_t value = splitmix(rng);
        table.emplace(key) = value;
        reference.emplace(key, value);
      }
    } else if (action == 1) {
      EXPECT_EQ(table.erase(key), reference.erase(key) == 1u);
    } else {
      const auto it = reference.find(key);
      std::uint64_t* found = table.find(key);
      if (it == reference.end()) {
        EXPECT_EQ(found, nullptr) << "key " << key;
      } else {
        ASSERT_NE(found, nullptr) << "key " << key;
        EXPECT_EQ(*found, it->second);
      }
    }
    ASSERT_EQ(table.size(), reference.size());
  }
  // Final sweep: every surviving key agrees; for_each visits exactly size().
  std::size_t visited = 0;
  table.for_each([&](std::uint64_t key, std::uint64_t& value) {
    ++visited;
    const auto it = reference.find(key);
    ASSERT_NE(it, reference.end());
    EXPECT_EQ(value, it->second);
  });
  EXPECT_EQ(visited, reference.size());
}

TEST(FlowTable, SteadyStateChurnDoesNotGrowTheArena) {
  FlowTable<int> table;
  for (std::uint64_t key = 1; key <= 32; ++key) table.emplace(key) = 1;
  const std::size_t capacity = table.capacity();
  // A sweep-style workload holds ~32 live flows while ids keep climbing;
  // erased slots must be reused instead of growing the arena.
  for (std::uint64_t key = 33; key <= 4096; ++key) {
    ASSERT_TRUE(table.erase(key - 32));
    table.emplace(key) = 1;
  }
  EXPECT_EQ(table.size(), 32u);
  EXPECT_EQ(table.capacity(), capacity);
}

TEST(FlowTable, ReusedSlotsStartFromDefaultValue) {
  FlowTable<std::vector<int>> table;
  table.emplace(1).assign(100, 42);
  ASSERT_TRUE(table.erase(1));
  // The next emplace reuses the freed slot and must see a fresh value.
  std::vector<int>& fresh = table.emplace(2);
  EXPECT_TRUE(fresh.empty());
}

TEST(FlowTable, SurvivesRehashUnderGrowth) {
  FlowTable<std::uint64_t> table;
  for (std::uint64_t key = 1; key <= 1000; ++key) table.emplace(key) = key * 3;
  EXPECT_EQ(table.size(), 1000u);
  for (std::uint64_t key = 1; key <= 1000; ++key) {
    ASSERT_NE(table.find(key), nullptr) << "key " << key;
    EXPECT_EQ(*table.find(key), key * 3);
  }
  // Erase the odd half, keep the even half intact.
  for (std::uint64_t key = 1; key <= 1000; key += 2) {
    ASSERT_TRUE(table.erase(key));
  }
  EXPECT_EQ(table.size(), 500u);
  for (std::uint64_t key = 2; key <= 1000; key += 2) {
    ASSERT_NE(table.find(key), nullptr) << "key " << key;
  }
}

}  // namespace
}  // namespace ecnd::sim
