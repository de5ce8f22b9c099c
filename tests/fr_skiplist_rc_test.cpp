// Tests for FRSkipListRC — reference counting applied to the skip list, as
// the paper's Section 5 proposes. Covers dictionary semantics, the tower
// build/teardown paths under counting, recycling behaviour, and full
// quiescent accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <map>
#include <thread>
#include <vector>

#include "lf/core/fr_skiplist_rc.h"
#include "lf/util/random.h"

namespace {

using RCSkip = lf::FRSkipListRC<long, long>;

// The paper's invariants on every level and the tower structure, at
// quiescence (FRSkipListRC::validate).
void expect_valid(const RCSkip& s) {
  const auto rep = s.validate();
  EXPECT_TRUE(rep.ok) << rep.error;
}

TEST(FRSkipListRC, BasicSemantics) {
  RCSkip s;
  EXPECT_TRUE(s.insert(5, 50));
  EXPECT_TRUE(s.insert(1, 10));
  EXPECT_FALSE(s.insert(5, 51));
  EXPECT_EQ(*s.find(5), 50);
  EXPECT_TRUE(s.erase(5));
  EXPECT_FALSE(s.erase(5));
  EXPECT_FALSE(s.contains(5));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.validate_accounting());
  expect_valid(s);
}

TEST(FRSkipListRC, TowersFullyRecycledAfterErase) {
  RCSkip s;
  for (long k = 0; k < 500; ++k) s.insert(k, k);
  const std::size_t arena = s.arena_count();
  EXPECT_GT(arena, 500u);  // multi-level towers allocate per level
  for (long k = 0; k < 500; ++k) ASSERT_TRUE(s.erase(k));
  EXPECT_EQ(s.size(), 0u);
  // Every interior node of every tower is back in the free list: counts
  // released the whole down/tower_root web with no strays. (25 = 24 head
  // nodes + 1 tail sentinel at the default MaxLevel.)
  EXPECT_TRUE(s.validate_accounting());
  expect_valid(s);
  EXPECT_EQ(s.free_count(), arena - 25u);
  EXPECT_EQ(s.arena_count(), arena);
}

TEST(FRSkipListRC, ChurnReusesNodes) {
  RCSkip s;
  for (long k = 0; k < 100; ++k) s.insert(k, k);
  const std::size_t high_water = s.arena_count();
  for (int round = 0; round < 15; ++round) {
    for (long k = 0; k < 100; ++k) ASSERT_TRUE(s.erase(k));
    for (long k = 0; k < 100; ++k) ASSERT_TRUE(s.insert(k, k + round));
  }
  // Tower heights are random, so later towers may occasionally need a few
  // more nodes than the first generation — but reuse must dominate: the
  // arena cannot have grown by another generation's worth.
  EXPECT_LT(s.arena_count(), high_water + 100u);
  for (long k = 0; k < 100; ++k) EXPECT_EQ(*s.find(k), k + 14);
  EXPECT_TRUE(s.validate_accounting());
  expect_valid(s);
}

TEST(FRSkipListRC, DifferentialAgainstStdMap) {
  RCSkip s;
  std::map<long, long> model;
  lf::Xoshiro256 rng(123);
  for (int i = 0; i < 15000; ++i) {
    const long k = static_cast<long>(rng.below(150));
    switch (rng.below(3)) {
      case 0:
        ASSERT_EQ(s.insert(k, k * 4), model.emplace(k, k * 4).second) << i;
        break;
      case 1:
        ASSERT_EQ(s.erase(k), model.erase(k) > 0) << i;
        break;
      default: {
        const auto a = s.find(k);
        ASSERT_EQ(a.has_value(), model.contains(k)) << i;
        if (a.has_value()) { ASSERT_EQ(*a, model.at(k)); }
      }
    }
  }
  EXPECT_EQ(s.size(), model.size());
  EXPECT_TRUE(s.validate_accounting());
  expect_valid(s);
}

TEST(FRSkipListRC, ConcurrentDisjointInserts) {
  RCSkip s;
  constexpr int kThreads = 4;
  constexpr long kPerThread = 250;
  std::barrier start(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      start.arrive_and_wait();
      for (long i = 0; i < kPerThread; ++i)
        ASSERT_TRUE(s.insert(t * kPerThread + i, i));
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(s.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (long k = 0; k < kThreads * kPerThread; ++k)
    ASSERT_TRUE(s.contains(k)) << k;
  EXPECT_TRUE(s.validate_accounting());
  expect_valid(s);
}

TEST(FRSkipListRC, ConcurrentChurnAccountingHolds) {
  RCSkip s;
  constexpr int kThreads = 4;
  std::barrier start(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      lf::Xoshiro256 rng(700 + t);
      start.arrive_and_wait();
      for (int i = 0; i < 8000; ++i) {
        const long k = static_cast<long>(rng.below(64));
        switch (rng.below(3)) {
          case 0: s.insert(k, k); break;
          case 1: s.erase(k); break;
          default: s.contains(k);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_TRUE(s.validate_accounting());
  expect_valid(s);
  for (long k = 0; k < 64; ++k)
    EXPECT_EQ(s.contains(k), s.find(k).has_value());
}

TEST(FRSkipListRC, HotKeyDuelInterruptsTowers) {
  // Insert/erase duels on few keys force interrupted tower constructions;
  // accounting must still balance exactly.
  RCSkip s;
  constexpr int kThreads = 4;
  std::barrier start(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      lf::Xoshiro256 rng(900 + t);
      start.arrive_and_wait();
      for (int i = 0; i < 10000; ++i) {
        const long k = static_cast<long>(rng.below(4));
        if (rng.below(2) == 0) {
          s.insert(k, k);
        } else {
          s.erase(k);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_TRUE(s.validate_accounting());
  expect_valid(s);
  EXPECT_LE(s.size(), 4u);
}

// Many short insert/erase duels on four keys, each checked for full
// accounting. Two counting races once broke this: the insert C&S counted
// the new link only after linking, so a just-linked tower node could be
// recycled while its builder still held it (the next level's `down` then
// named a re-used node; this crashed), and a failed finger
// re-acquisition undid its increment with a raw decrement, stranding
// nodes at count zero. Most runs of 32 trials caught them.
TEST(FRSkipListRC, RepeatedHotKeyDuelsKeepAccounting) {
  constexpr int kThreads = 4;
  for (int trial = 0; trial < 32; ++trial) {
    RCSkip s;
    std::barrier start(kThreads);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        lf::Xoshiro256 rng(1000 * trial + t);
        start.arrive_and_wait();
        for (int i = 0; i < 5000; ++i) {
          const long k = static_cast<long>(rng.below(4));
          if (rng.below(2) == 0) {
            s.insert(k, k);
          } else {
            s.erase(k);
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    ASSERT_TRUE(s.validate_accounting()) << "trial " << trial;
    const auto rep = s.validate();
    ASSERT_TRUE(rep.ok) << "trial " << trial << ": " << rep.error;
  }
}

TEST(FRSkipListRC, ReadersSeeOnlySaneValues) {
  RCSkip s;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    lf::Xoshiro256 rng(21);
    while (!stop.load(std::memory_order_acquire)) {
      const long k = static_cast<long>(rng.below(32));
      s.insert(k, k * 17);
      s.erase(static_cast<long>(rng.below(32)));
    }
  });
  std::thread reader([&] {
    lf::Xoshiro256 rng(22);
    for (int i = 0; i < 25000; ++i) {
      const long k = static_cast<long>(rng.below(32));
      const auto v = s.find(k);
      if (v.has_value()) { ASSERT_EQ(*v, k * 17); }
    }
    stop.store(true, std::memory_order_release);
  });
  reader.join();
  writer.join();
  EXPECT_TRUE(s.validate_accounting());
  expect_valid(s);
}

}  // namespace
