// Open-addressing hash map keyed by five-tuple: the probe's live-session
// table, looked up once per gaming packet.
//
// Power-of-two capacity that doubles when the load would pass 1/2, and
// linear probing with backward-shift deletion, so there are no
// tombstones and a miss ends at the first empty slot. The bucket is the
// top bits of a multiply-mix over the tuple packed into two 64-bit words
// (no byte loop, no `%`). Iteration order is unspecified: callers that
// need a deterministic order sort the keys they collect.
//
// Callers key it by the canonical tuple; it does not canonicalise.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "net/packet.hpp"

namespace cgctx::net {

template <class V>
class FlowMap {
 public:
  /// `capacity` is rounded up to a power of two, at least 2.
  explicit FlowMap(std::size_t capacity = 16)
      : slots_(std::bit_ceil(capacity < 2 ? std::size_t{2} : capacity)),
        shift_(64 - std::countr_zero(slots_.size())) {}

  /// 64-bit mix of the tuple; a key's home bucket is its top
  /// log2(capacity()) bits.
  [[nodiscard]] static std::uint64_t hash(const FiveTuple& key) {
    const std::uint64_t ips =
        std::uint64_t{key.src_ip.value} << 32 | key.dst_ip.value;
    const std::uint64_t rest = std::uint64_t{key.src_port} << 24 |
                               std::uint64_t{key.dst_port} << 8 | key.protocol;
    const std::uint64_t h = ips * 0x9E3779B97F4A7C15ULL ^ rest;
    return (h ^ h >> 32) * 0xD6E8FEB86659FD93ULL;
  }

  /// The value stored under `key`, or nullptr. The pointer is valid until
  /// the next insert() or erase().
  [[nodiscard]] V* find(const FiveTuple& key) {
    for (std::size_t i = home(key); slots_[i].used; i = next(i))
      if (slots_[i].key == key) return &slots_[i].value;
    return nullptr;
  }

  /// Stores `value` under `key` unless the key is present. Returns the
  /// stored value (valid until the next insert() or erase()) and whether
  /// it was inserted.
  std::pair<V*, bool> insert(const FiveTuple& key, V value) {
    if (V* existing = find(key)) return {existing, false};
    if (2 * (size_ + 1) > slots_.size()) grow();
    std::size_t i = home(key);
    while (slots_[i].used) i = next(i);
    slots_[i].key = key;
    slots_[i].used = true;
    slots_[i].value = std::move(value);
    ++size_;
    return {&slots_[i].value, true};
  }

  /// Removes `key` and returns its value (nullopt if absent), in one
  /// probe sequence. The entries after it in its cluster shift back into
  /// the hole, so every key stays reachable from its home bucket.
  std::optional<V> erase(const FiveTuple& key) {
    std::size_t hole = home(key);
    for (; slots_[hole].used; hole = next(hole))
      if (slots_[hole].key == key) break;
    if (!slots_[hole].used) return std::nullopt;
    std::optional<V> out(std::move(slots_[hole].value));
    for (std::size_t j = next(hole); slots_[j].used; j = next(j)) {
      // The entry at j stays unless its home lies cyclically outside
      // (hole, j], i.e. the probe from its home passes the hole.
      const std::size_t h = home(slots_[j].key);
      const bool stays =
          hole < j ? (hole < h && h <= j) : (hole < h || h <= j);
      if (stays) continue;
      slots_[hole].key = slots_[j].key;
      slots_[hole].value = std::move(slots_[j].value);
      hole = j;
    }
    slots_[hole].used = false;
    slots_[hole].value = V{};
    --size_;
    return out;
  }

  /// Calls `fn(key, value)` on every entry, in unspecified order. `fn`
  /// must not insert or erase.
  template <class Fn>
  void for_each(Fn&& fn) {
    for (Slot& slot : slots_)
      if (slot.used) fn(std::as_const(slot.key), slot.value);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    FiveTuple key;
    bool used = false;
    V value{};
  };

  [[nodiscard]] std::size_t home(const FiveTuple& key) const {
    return static_cast<std::size_t>(hash(key) >> shift_);
  }
  [[nodiscard]] std::size_t next(std::size_t i) const {
    return (i + 1) & (slots_.size() - 1);
  }

  /// Doubles the capacity and re-places every entry.
  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    --shift_;
    for (Slot& slot : old) {
      if (!slot.used) continue;
      std::size_t i = home(slot.key);
      while (slots_[i].used) i = next(i);
      slots_[i] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  int shift_;
  std::size_t size_ = 0;
};

}  // namespace cgctx::net
