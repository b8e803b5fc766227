#pragma once
// Flat arena-backed flow table: the per-flow state container for Host.
//
// Same discipline as the PR-5 event pool: values live contiguously in a slot
// arena that only ever grows, freed slots go onto a free list and are reused
// (so steady-state churn allocates nothing), and lookup goes through a
// separate open-addressed index of slot references (power-of-two, linear
// probing, backward-shift deletion — no tombstones). With tens of thousands
// of concurrent flows per fabric this keeps per-flow state compact and cache
// friendly where a node-based unordered_map would malloc per flow.
//
// Keys are flow ids, which are never 0 ((host_id << 32) | seq with seq >= 1);
// 0 marks an empty slot. Not thread-safe — each Network owns its tables, and
// sweep parallelism is across independent Networks.

#include <cassert>
#include <cstdint>
#include <vector>

#include "core/hash.hpp"
#include "obs/metrics.hpp"

namespace ecnd::sim {

namespace flow_table_detail {

// Process-wide table metrics (all networks): slots ever allocated, slot
// reuses off the free list, and the high-watermark of concurrently active
// flows. Function-local statics so the header stays self-contained.
inline void count_slot_alloc(std::uint64_t total_slots) {
  static const obs::Gauge kSlots = obs::gauge("sim.flow_table_slots");
  kSlots.set_max(total_slots);
}
inline void count_reuse() {
  static const obs::Counter kReuse = obs::counter("sim.flow_table_reuse");
  kReuse.add();
}
inline void count_active(std::uint64_t active) {
  static const obs::Gauge kActive = obs::gauge("sim.flow_table_active_max");
  kActive.set_max(active);
}

}  // namespace flow_table_detail

template <typename T>
class FlowTable {
 public:
  FlowTable() : index_(kMinBuckets, 0) {}

  /// Insert a default-constructed value under `key` (must not be present)
  /// and return it. The reference is valid until the next emplace().
  T& emplace(std::uint64_t key) {
    assert(key != 0 && "flow ids are never 0");
    assert(find(key) == nullptr && "duplicate flow id");
    if ((size_ + 1) * 10 > index_.size() * 7) rehash(index_.size() * 2);
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      flow_table_detail::count_reuse();
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
      flow_table_detail::count_slot_alloc(slots_.size());
    }
    slots_[slot].key = key;
    std::size_t b = bucket_of(key);
    while (index_[b] != 0) b = (b + 1) & (index_.size() - 1);
    index_[b] = slot + 1;
    ++size_;
    flow_table_detail::count_active(size_);
    return slots_[slot].value;
  }

  T* find(std::uint64_t key) {
    const std::size_t mask = index_.size() - 1;
    for (std::size_t b = bucket_of(key); index_[b] != 0; b = (b + 1) & mask) {
      Slot& s = slots_[index_[b] - 1];
      if (s.key == key) return &s.value;
    }
    return nullptr;
  }
  const T* find(std::uint64_t key) const {
    return const_cast<FlowTable*>(this)->find(key);
  }

  /// Remove `key`; returns false if absent. The slot's value is reset to a
  /// default-constructed T (releasing owned resources) and recycled.
  bool erase(std::uint64_t key) {
    const std::size_t mask = index_.size() - 1;
    std::size_t b = bucket_of(key);
    while (true) {
      if (index_[b] == 0) return false;
      if (slots_[index_[b] - 1].key == key) break;
      b = (b + 1) & mask;
    }
    const std::uint32_t slot = index_[b] - 1;
    slots_[slot].key = 0;
    slots_[slot].value = T{};
    free_.push_back(slot);
    // Backward-shift deletion: pull later probe-chain entries into the hole
    // so lookups never need tombstones.
    std::size_t hole = b;
    for (std::size_t next = (hole + 1) & mask; index_[next] != 0;
         next = (next + 1) & mask) {
      const std::size_t ideal = bucket_of(slots_[index_[next] - 1].key);
      if (((next - ideal) & mask) >= ((next - hole) & mask)) {
        index_[hole] = index_[next];
        hole = next;
      }
    }
    index_[hole] = 0;
    --size_;
    return true;
  }

  std::size_t size() const { return size_; }
  /// Slots ever allocated (arena footprint; >= size()).
  std::size_t capacity() const { return slots_.size(); }

  /// Visit every active entry (arena order — deterministic for a given
  /// insertion/erasure history, which the seeded simulation guarantees).
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (Slot& s : slots_) {
      if (s.key != 0) fn(s.key, s.value);
    }
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    T value{};
  };
  static constexpr std::size_t kMinBuckets = 16;

  std::size_t bucket_of(std::uint64_t key) const {
    return splitmix64_mix(key) & (index_.size() - 1);
  }

  void rehash(std::size_t buckets) {
    index_.assign(buckets, 0);
    const std::size_t mask = buckets - 1;
    for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
      if (slots_[slot].key == 0) continue;
      std::size_t b = bucket_of(slots_[slot].key);
      while (index_[b] != 0) b = (b + 1) & mask;
      index_[b] = slot + 1;
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::vector<std::uint32_t> index_;  ///< slot + 1; 0 = empty bucket
  std::size_t size_ = 0;
};

}  // namespace ecnd::sim
