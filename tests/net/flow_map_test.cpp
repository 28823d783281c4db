#include "net/flow_map.hpp"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

namespace cgctx::net {
namespace {

FiveTuple random_tuple(std::mt19937_64& rng) {
  const std::uint64_t bits = rng();
  return FiveTuple{Ipv4Addr{static_cast<std::uint32_t>(bits)},
                   Ipv4Addr{static_cast<std::uint32_t>(bits >> 32)},
                   static_cast<std::uint16_t>(rng()),
                   static_cast<std::uint16_t>(rng()),
                   static_cast<std::uint8_t>(rng() % 2 == 0 ? 17 : 6)};
}

TEST(FlowMap, RandomChurnMatchesStdMap) {
  using Map = FlowMap<std::uint64_t>;
  std::mt19937_64 rng(20251017);

  // Half the keys hash to the last bucket at every capacity up to 256 (top
  // 8 hash bits set), so their cluster wraps past the end of the table:
  // backward-shift deletes move entries across the wrap point.
  std::vector<FiveTuple> keys;
  while (keys.size() < 64) {
    const FiveTuple t = random_tuple(rng);
    if (Map::hash(t) >> 56 == 0xFF) keys.push_back(t);
  }
  while (keys.size() < 128) keys.push_back(random_tuple(rng));

  Map map(2);  // tiny: growth rehashes mid-churn
  std::map<FiveTuple, std::uint64_t> reference;
  std::size_t grew_after_erase = 0;
  std::size_t erased = 0;
  for (int op = 0; op < 40000; ++op) {
    const FiveTuple& key = keys[rng() % keys.size()];
    SCOPED_TRACE(op);
    switch (rng() % 3) {
      case 0: {
        const std::uint64_t value = rng();
        const std::size_t capacity = map.capacity();
        const auto [stored, inserted] = map.insert(key, value);
        const auto [it, ref_inserted] = reference.insert({key, value});
        ASSERT_EQ(inserted, ref_inserted);
        ASSERT_EQ(*stored, it->second);
        if (map.capacity() > capacity && erased > 0) ++grew_after_erase;
        break;
      }
      case 1: {
        const std::optional<std::uint64_t> value = map.erase(key);
        const auto it = reference.find(key);
        ASSERT_EQ(value.has_value(), it != reference.end());
        if (value) {
          ASSERT_EQ(*value, it->second);
          reference.erase(it);
          ++erased;
        }
        break;
      }
      default: {
        const std::uint64_t* value = map.find(key);
        const auto it = reference.find(key);
        ASSERT_EQ(value != nullptr, it != reference.end());
        if (value != nullptr) {
          ASSERT_EQ(*value, it->second);
        }
      }
    }
    ASSERT_EQ(map.size(), reference.size());
    ASSERT_LE(2 * map.size(), map.capacity());
    if (op % 499 == 0) {
      // Every key is reachable, and iteration visits exactly the entries.
      for (const FiveTuple& k : keys) {
        const std::uint64_t* value = map.find(k);
        const auto it = reference.find(k);
        ASSERT_EQ(value != nullptr, it != reference.end());
        if (value != nullptr) {
          ASSERT_EQ(*value, it->second);
        }
      }
      std::map<FiveTuple, std::uint64_t> visited;
      map.for_each([&](const FiveTuple& k, std::uint64_t v) {
        EXPECT_TRUE(visited.emplace(k, v).second);
      });
      ASSERT_EQ(visited, reference);
    }
  }
  EXPECT_GT(erased, 0u);
  EXPECT_GT(grew_after_erase, 0u);
  EXPECT_GE(map.capacity(), 128u);
}

}  // namespace
}  // namespace cgctx::net
