// Sequential functional tests for FRSkipList (paper Section 4).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lf/core/fr_skiplist.h"
#include "lf/instrument/counters.h"
#include "lf/reclaim/epoch.h"
#include "lf/util/random.h"

namespace {

using IntSkip = lf::FRSkipList<long, long>;

TEST(FRSkipListBasic, EmptyList) {
  IntSkip s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_FALSE(s.contains(1));
  EXPECT_FALSE(s.erase(1));
  EXPECT_TRUE(s.validate().ok);
}

TEST(FRSkipListBasic, InsertFindErase) {
  IntSkip s;
  EXPECT_TRUE(s.insert(42, 420));
  EXPECT_TRUE(s.contains(42));
  EXPECT_EQ(*s.find(42), 420);
  EXPECT_TRUE(s.erase(42));
  EXPECT_FALSE(s.contains(42));
  EXPECT_TRUE(s.validate().ok);
}

TEST(FRSkipListBasic, DuplicateInsertRejected) {
  IntSkip s;
  EXPECT_TRUE(s.insert(5, 1));
  EXPECT_FALSE(s.insert(5, 2));
  EXPECT_EQ(*s.find(5), 1);
}

TEST(FRSkipListBasic, ReinsertAfterErase) {
  IntSkip s;
  for (int round = 0; round < 50; ++round) {
    EXPECT_TRUE(s.insert(7, round));
    EXPECT_EQ(*s.find(7), round);
    EXPECT_TRUE(s.erase(7));
    EXPECT_FALSE(s.contains(7));
  }
  EXPECT_TRUE(s.validate().ok);
}

TEST(FRSkipListBasic, KeysComeOutSorted) {
  IntSkip s;
  lf::Xoshiro256 rng(3);
  std::set<long> model;
  for (int i = 0; i < 2000; ++i) {
    const long k = static_cast<long>(rng.below(10000));
    s.insert(k, k);
    model.insert(k);
  }
  const auto keys = s.keys();
  EXPECT_EQ(keys.size(), model.size());
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(FRSkipListBasic, EraseCleansWholeTower) {
  IntSkip s;
  for (long k = 0; k < 500; ++k) s.insert(k, k);
  // Deleting every key must leave no superfluous nodes on ANY level (the
  // validate() traversal covers all levels).
  for (long k = 0; k < 500; ++k) ASSERT_TRUE(s.erase(k));
  EXPECT_TRUE(s.empty());
  const auto rep = s.validate();
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.node_count, 0u);
}

TEST(FRSkipListBasic, VerticalTowerStructure) {
  IntSkip s;
  for (long k = 0; k < 1000; ++k) s.insert(k, k * 2);
  const auto rep = s.validate();  // checks down slot/block/level coherence
  ASSERT_TRUE(rep.ok) << rep.error;
  // With 1000 geometric towers, some must be taller than one level.
  EXPECT_GT(rep.node_count, 1000u);
  EXPECT_LT(rep.node_count, 3000u);  // E[height] = 2 - 2^-H; ~2000 expected
}

TEST(FRSkipListBasic, CensusMatchesGeometricExpectation) {
  IntSkip s;
  constexpr long kN = 20000;
  for (long k = 0; k < kN; ++k) s.insert(k, k);
  const auto census = s.census();
  EXPECT_EQ(census.towers, static_cast<std::size_t>(kN));
  EXPECT_EQ(census.incomplete, 0u);  // no interruptions when sequential
  EXPECT_EQ(census.full, static_cast<std::size_t>(kN));
  // Height-1 towers ~ half of all.
  const double h1 = static_cast<double>(census.height_counts.at(1));
  EXPECT_NEAR(h1 / kN, 0.5, 0.03);
  const double h2 = static_cast<double>(census.height_counts.at(2));
  EXPECT_NEAR(h2 / kN, 0.25, 0.03);
}

TEST(FRSkipListBasic, TopHintTracksTallTowers) {
  IntSkip s;
  EXPECT_EQ(s.top_level_hint(), 1);
  for (long k = 0; k < 5000; ++k) s.insert(k, k);
  EXPECT_GT(s.top_level_hint(), 5);  // ~log2(5000) expected
  EXPECT_LE(s.top_level_hint(), IntSkip::kMaxTowerHeight);
}

// std::string keys also make sizeof(Node) a size that is not a multiple of
// 64, so towers of every height exercise slot offsets that no cache-line
// rounding hides (ASan catches an off-by-one slot).
TEST(FRSkipListBasic, StringKeys) {
  using StringSkip = lf::FRSkipList<std::string, int>;
  constexpr int kMaxHeight = StringSkip::kMaxTowerHeight;
  lf::reclaim::EpochDomain domain;
  const auto before = lf::stats::aggregate();
  {
    StringSkip s{lf::reclaim::EpochReclaimer(domain)};
    EXPECT_TRUE(s.insert("mango", 1));
    EXPECT_TRUE(s.insert("kiwi", 2));
    EXPECT_TRUE(s.insert("apple", 3));
    EXPECT_EQ(s.keys(),
              (std::vector<std::string>{"apple", "kiwi", "mango"}));
    EXPECT_TRUE(s.erase("kiwi"));
    EXPECT_FALSE(s.contains("kiwi"));
    EXPECT_TRUE(s.validate().ok);

    // Too long for the small-string buffer, so every key owns heap memory.
    auto key = [](int h) {
      return "tower-" + std::to_string(100 + h) + std::string(32, '.');
    };
    for (int h = 1; h <= kMaxHeight; ++h) {
      ASSERT_EQ(s.insert_with_height(key(h), h, h),
                StringSkip::InsertStatus::kInserted);
    }
    for (int h = 1; h <= kMaxHeight; h += 2) ASSERT_TRUE(s.erase(key(h)));
    for (int h = 1; h <= kMaxHeight; h += 2) {
      ASSERT_EQ(s.insert_with_height(key(h), h, h),
                StringSkip::InsertStatus::kInserted);
    }
    const auto rep = s.validate();
    EXPECT_TRUE(rep.ok) << rep.error;
    const auto census = s.census();
    EXPECT_EQ(census.towers, static_cast<std::size_t>(kMaxHeight) + 2);
    EXPECT_EQ(census.incomplete, 0u);
    for (int h = 1; h <= kMaxHeight; ++h) {
      EXPECT_GE(census.height_counts.count(h), 1u) << "height " << h;
      EXPECT_EQ(*s.find(key(h)), h);
    }
  }
  domain.drain();
  const auto delta = lf::stats::aggregate() - before;
  EXPECT_GE(delta.node_retired, 1u + (kMaxHeight + 1) / 2);
  EXPECT_EQ(delta.node_retired, delta.node_freed);
}

TEST(FRSkipListBasic, DifferentialAgainstStdMap) {
  IntSkip s;
  std::map<long, long> model;
  lf::Xoshiro256 rng(99);
  for (int i = 0; i < 30000; ++i) {
    const long k = static_cast<long>(rng.below(300));
    switch (rng.below(3)) {
      case 0: {
        ASSERT_EQ(s.insert(k, k * 5), model.emplace(k, k * 5).second)
            << "insert " << k << " at op " << i;
        break;
      }
      case 1: {
        ASSERT_EQ(s.erase(k), model.erase(k) > 0)
            << "erase " << k << " at op " << i;
        break;
      }
      default: {
        const auto a = s.find(k);
        const auto b = model.find(k);
        ASSERT_EQ(a.has_value(), b != model.end());
        if (a.has_value()) { ASSERT_EQ(*a, b->second); }
      }
    }
  }
  EXPECT_EQ(s.size(), model.size());
  std::vector<long> expect;
  for (const auto& [k, v] : model) expect.push_back(k);
  EXPECT_EQ(s.keys(), expect);
  EXPECT_TRUE(s.validate().ok);
}

TEST(FRSkipListBasic, ForEachSeesCurrentEntries) {
  IntSkip s;
  for (long k = 0; k < 50; ++k) s.insert(k, -k);
  s.erase(10);
  s.erase(20);
  std::map<long, long> seen;
  s.for_each([&](long k, long v) { seen[k] = v; });
  EXPECT_EQ(seen.size(), 48u);
  EXPECT_FALSE(seen.contains(10));
  EXPECT_FALSE(seen.contains(20));
  EXPECT_EQ(seen.at(30), -30);
}

TEST(FRSkipListBasic, SearchCostIsLogarithmic) {
  // Step-counter sanity for the O(log n) claim: average search cost in a
  // 65536-key list must be far below linear (and in the vicinity of
  // 2*log2(n) level-advances plus descent).
  IntSkip s;
  constexpr long kN = 1 << 16;
  for (long k = 0; k < kN; ++k) s.insert(k, k);
  lf::Xoshiro256 rng(5);
  const auto before = lf::stats::aggregate();
  constexpr int kSearches = 2000;
  for (int i = 0; i < kSearches; ++i)
    s.contains(static_cast<long>(rng.below(kN)));
  const auto delta = lf::stats::aggregate() - before;
  const double steps =
      static_cast<double>(delta.essential_steps()) / kSearches;
  EXPECT_LT(steps, 150.0);  // log-ish; linear would be ~32768
  EXPECT_GT(steps, 4.0);
}

}  // namespace
