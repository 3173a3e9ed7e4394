// AddrMap (common/addr_map.hpp) against std::unordered_map: randomized
// differential runs over insert, find, operator[], erase and erase_if,
// plus hand-built probe chains that wrap around the end of the slot array
// and a growth triggered while an insert walks a chain.

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cdsim/common/addr_map.hpp"
#include "cdsim/common/rng.hpp"

namespace cdsim {
namespace {

using Map = AddrMap<std::uint64_t>;
using Ref = std::unordered_map<Addr, std::uint64_t>;

/// Home slot of `key` at capacity 2^bits (the map's documented rule).
std::size_t home(Addr key, unsigned bits) {
  return static_cast<std::size_t>(Map::hash(key) >> (64 - bits));
}

/// The first `n` line-aligned keys whose home at capacity 2^bits is `slot`.
std::vector<Addr> keys_homed_at(std::size_t slot, unsigned bits,
                                std::size_t n) {
  std::vector<Addr> out;
  for (Addr k = 64; out.size() < n; k += 64) {
    if (home(k, bits) == slot) out.push_back(k);
  }
  return out;
}

/// Every reference entry is found with its value, and sizes agree.
void expect_same(Map& m, const Ref& ref) {
  ASSERT_EQ(m.size(), ref.size());
  for (const auto& [k, v] : ref) {  // order-insensitive: lookups only
    const std::uint64_t* got = m.find(k);
    ASSERT_NE(got, nullptr) << "lost key 0x" << std::hex << k;
    EXPECT_EQ(*got, v);
  }
}

TEST(AddrMap, EmptyMapAllocatesNothingAndFindsNothing) {
  Map m;
  EXPECT_EQ(m.capacity(), 0u);
  EXPECT_EQ(m.find(64), nullptr);
  EXPECT_FALSE(m.erase(64));
  m.erase_if([](Addr, std::uint64_t) { return true; });
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.capacity(), 0u);
}

TEST(AddrMap, OperatorBracketValueInitializesAndKeepsValues) {
  Map m;
  EXPECT_EQ(m[128], 0u);
  m[128] = 7;
  m[192] += 3;
  EXPECT_EQ(*m.find(128), 7u);
  EXPECT_EQ(*m.find(192), 3u);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.capacity(), 16u);
}

TEST(AddrMap, ChainWrappingTheEndSurvivesEraseOfEveryMember) {
  // Five keys homed at the last slot of a 16-slot map: the chain occupies
  // slots 15, 0, 1, 2, 3. Erasing any member must shift the rest back
  // across the wrap without losing one.
  const std::vector<Addr> chain = keys_homed_at(15, 4, 5);
  // A bystander homed at slot 1 sits inside the wrapped chain's span.
  const Addr bystander = keys_homed_at(1, 4, 1).front();
  for (std::size_t victim = 0; victim < chain.size(); ++victim) {
    Map m;
    Ref ref;
    for (std::size_t i = 0; i < chain.size(); ++i) {
      m[chain[i]] = i + 1;
      ref[chain[i]] = i + 1;
    }
    m[bystander] = 99;
    ref[bystander] = 99;
    ASSERT_EQ(m.capacity(), 16u);
    EXPECT_TRUE(m.erase(chain[victim]));
    ref.erase(chain[victim]);
    EXPECT_FALSE(m.erase(chain[victim]));
    expect_same(m, ref);
    // Erase the rest one by one, checking after each.
    for (std::size_t i = 0; i < chain.size(); ++i) {
      if (i == victim) continue;
      EXPECT_TRUE(m.erase(chain[i]));
      ref.erase(chain[i]);
      expect_same(m, ref);
    }
  }
}

TEST(AddrMap, EraseIfAcrossAWrappedChainVisitsEveryEntry) {
  const std::vector<Addr> chain = keys_homed_at(14, 4, 6);
  Map m;
  Ref ref;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    m[chain[i]] = i;
    ref[chain[i]] = i;
  }
  // Drop the even values: the erase at the array's end pulls wrapped
  // members from the front back across the boundary.
  m.erase_if([](Addr, std::uint64_t v) { return v % 2 == 0; });
  std::erase_if(ref, [](const auto& kv) { return kv.second % 2 == 0; });
  expect_same(m, ref);
  m.erase_if([](Addr, std::uint64_t) { return true; });
  EXPECT_TRUE(m.empty());
  for (Addr k : chain) EXPECT_EQ(m.find(k), nullptr);
}

TEST(AddrMap, GrowthInTheMiddleOfAChain) {
  // 12 entries fill a 16-slot map to its 3/4 limit; the 13th insert
  // walks a chain of keys homed at slot 5 and must grow mid-walk, then
  // land in the doubled table with every earlier entry still reachable.
  const std::vector<Addr> chain = keys_homed_at(5, 4, 13);
  Map m;
  Ref ref;
  for (std::size_t i = 0; i < 12; ++i) {
    m[chain[i]] = 100 + i;
    ref[chain[i]] = 100 + i;
  }
  ASSERT_EQ(m.capacity(), 16u);
  m[chain[12]] = 112;
  ref[chain[12]] = 112;
  EXPECT_EQ(m.capacity(), 32u);
  expect_same(m, ref);
}

TEST(AddrMap, RandomizedDifferentialAgainstUnorderedMap) {
  // Small key pools force long chains, repeated hits and erase churn;
  // the large pool drives the table through several doublings.
  for (const std::uint64_t pool : {24ull, 200ull, 5000ull}) {
    Xoshiro256 rng(0xADD5'0000 + pool);
    Map m;
    Ref ref;
    for (int step = 0; step < 60'000; ++step) {
      const Addr key = (rng.below(pool) + 1) * 64;
      const std::uint64_t op = rng.below(100);
      if (op < 40) {
        const std::uint64_t v = rng.below(1000);
        m[key] = v;
        ref[key] = v;
      } else if (op < 55) {
        m[key] += 1;  // operator[] read-modify-write, inserting if absent
        ref[key] += 1;
      } else if (op < 80) {
        const std::uint64_t* got = m.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(got != nullptr, it != ref.end());
        if (got != nullptr) {
          ASSERT_EQ(*got, it->second);
        }
      } else if (op < 99) {
        ASSERT_EQ(m.erase(key), ref.erase(key) == 1);
      } else {
        const std::uint64_t cut = rng.below(1000);
        m.erase_if([cut](Addr, std::uint64_t v) { return v < cut; });
        std::erase_if(ref, [cut](const auto& kv) { return kv.second < cut; });
      }
      ASSERT_EQ(m.size(), ref.size());
    }
    expect_same(m, ref);
  }
}

}  // namespace
}  // namespace cdsim
