// Tests for FRListRC — the Valois reference-counting variant the paper's
// Section 5 suggests. Beyond dictionary semantics (also covered by the
// typed battery), these verify the reference-counting contract itself:
// nodes are recycled as soon as they are unreachable, memory stays bounded
// under churn, and counts at quiescence are exactly the incoming links.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <map>
#include <thread>
#include <vector>

#include "lf/core/fr_list_rc.h"
#include "lf/util/random.h"
#include "throwing_key.h"

namespace {

using RCList = lf::FRListRC<long, long>;

TEST(FRListRC, BasicSemantics) {
  RCList list;
  EXPECT_TRUE(list.insert(2, 20));
  EXPECT_TRUE(list.insert(1, 10));
  EXPECT_FALSE(list.insert(2, 21));
  EXPECT_EQ(*list.find(2), 20);
  EXPECT_TRUE(list.erase(2));
  EXPECT_FALSE(list.erase(2));
  EXPECT_FALSE(list.contains(2));
  EXPECT_EQ(list.size(), 1u);
}

TEST(FRListRC, DeletedNodesAreRecycledImmediately) {
  RCList list;
  for (long k = 0; k < 100; ++k) list.insert(k, k);
  EXPECT_EQ(list.free_count(), 0u);
  for (long k = 0; k < 100; ++k) ASSERT_TRUE(list.erase(k));
  // No grace periods, no epochs: at quiescence every deleted node is
  // already back in the free list.
  EXPECT_EQ(list.free_count(), 100u);
}

TEST(FRListRC, RecycledNodesAreReused) {
  RCList list;
  for (long k = 0; k < 50; ++k) list.insert(k, k);
  const std::size_t arena_after_insert = list.arena_count();
  for (int round = 0; round < 20; ++round) {
    for (long k = 0; k < 50; ++k) ASSERT_TRUE(list.erase(k));
    for (long k = 0; k < 50; ++k) ASSERT_TRUE(list.insert(k, k + round));
  }
  // 20 churn rounds must not have allocated fresh nodes: memory is bounded
  // by the high-water mark, the property reference counting buys.
  EXPECT_EQ(list.arena_count(), arena_after_insert);
  for (long k = 0; k < 50; ++k) EXPECT_EQ(*list.find(k), k + 19);
}

TEST(FRListRC, QuiescentCountsEqualIncomingLinks) {
  RCList list;
  lf::Xoshiro256 rng(5);
  for (int i = 0; i < 2000; ++i) {
    const long k = static_cast<long>(rng.below(200));
    if (rng.below(2) == 0) {
      list.insert(k, k);
    } else {
      list.erase(k);
    }
  }
  EXPECT_TRUE(list.validate_counts());
}

TEST(FRListRC, DifferentialAgainstStdMap) {
  RCList list;
  std::map<long, long> model;
  lf::Xoshiro256 rng(77);
  for (int i = 0; i < 15000; ++i) {
    const long k = static_cast<long>(rng.below(150));
    switch (rng.below(3)) {
      case 0:
        ASSERT_EQ(list.insert(k, k * 2), model.emplace(k, k * 2).second) << i;
        break;
      case 1:
        ASSERT_EQ(list.erase(k), model.erase(k) > 0) << i;
        break;
      default: {
        const auto a = list.find(k);
        ASSERT_EQ(a.has_value(), model.contains(k)) << i;
        if (a.has_value()) { ASSERT_EQ(*a, model.at(k)); }
      }
    }
  }
  EXPECT_EQ(list.size(), model.size());
  EXPECT_TRUE(list.validate_counts());
}

TEST(FRListRC, ConcurrentDisjointInserts) {
  RCList list;
  constexpr int kThreads = 4;
  constexpr long kPerThread = 300;
  std::barrier start(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      start.arrive_and_wait();
      for (long i = 0; i < kPerThread; ++i)
        ASSERT_TRUE(list.insert(t * kPerThread + i, i));
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(list.size(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_TRUE(list.validate_counts());
}

TEST(FRListRC, ConcurrentChurnKeepsCountsConsistent) {
  RCList list;
  constexpr int kThreads = 4;
  std::barrier start(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      lf::Xoshiro256 rng(400 + t);
      start.arrive_and_wait();
      for (int i = 0; i < 12000; ++i) {
        const long k = static_cast<long>(rng.below(128));
        switch (rng.below(3)) {
          case 0: list.insert(k, k); break;
          case 1: list.erase(k); break;
          default: list.contains(k);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_TRUE(list.validate_counts());
  // Full accounting at quiescence: every interior node ever allocated is
  // either linked (live) or back in the free list — none stranded with a
  // nonzero count. (The arena high-water mark itself can exceed the live
  // set: a preempted reader transitively pins the chain of deleted nodes
  // reachable from the node it holds, a known property of reference
  // counting; the chains all cascade back to the free list once released.)
  EXPECT_EQ(list.arena_count(), list.free_count() + list.size() + 2);
  EXPECT_TRUE(list.validate_accounting());
  const auto rep = list.validate();
  EXPECT_TRUE(rep.ok) << rep.error;
  for (long k = 0; k < 128; ++k)
    EXPECT_EQ(list.contains(k), list.find(k).has_value());
}

// Many short churns on a handful of keys, each checked for full
// accounting. Two counting races once stranded nodes here (count zero but
// never recycled): the insert C&S counted the new link only after
// linking, and a failed finger re-acquisition undid its increment with a
// raw decrement. About one trial in five caught them.
TEST(FRListRC, RepeatedHotKeyChurnsKeepAccounting) {
  constexpr int kThreads = 4;
  for (int trial = 0; trial < 32; ++trial) {
    RCList list;
    std::barrier start(kThreads);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        lf::Xoshiro256 rng(1000 * trial + t);
        start.arrive_and_wait();
        for (int i = 0; i < 20000; ++i) {
          const long k = static_cast<long>(rng.below(8));
          switch (rng.below(3)) {
            case 0: list.insert(k, k); break;
            case 1: list.erase(k); break;
            default: list.contains(k);
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    ASSERT_TRUE(list.validate_counts()) << "trial " << trial;
    ASSERT_EQ(list.arena_count(), list.free_count() + list.size() + 2)
        << "trial " << trial;
    EXPECT_TRUE(list.validate_accounting()) << "trial " << trial;
    const auto rep = list.validate();
    EXPECT_TRUE(rep.ok) << "trial " << trial << ": " << rep.error;
  }
}

TEST(FRListRC, ReadersSeeOnlySaneValuesDuringChurn) {
  RCList list;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    lf::Xoshiro256 rng(9);
    while (!stop.load(std::memory_order_acquire)) {
      const long k = static_cast<long>(rng.below(64));
      list.insert(k, k * 13);
      list.erase(static_cast<long>(rng.below(64)));
    }
  });
  std::thread reader([&] {
    lf::Xoshiro256 rng(10);
    for (int i = 0; i < 30000; ++i) {
      const long k = static_cast<long>(rng.below(64));
      const auto v = list.find(k);
      if (v.has_value()) { ASSERT_EQ(*v, k * 13); }
    }
    stop.store(true, std::memory_order_release);
  });
  reader.join();
  writer.join();
  EXPECT_TRUE(list.validate_counts());
}

// The new node's key copy throws std::bad_alloc while the insert holds
// counted references on its search result (1, 3): insert_checked reports
// kNoMemory and drops them, so counts stay exact, the erased neighbours are
// recycled, and the key inserts afterwards.
TEST(FRListRC, KeyCopyFailureKeepsCounts) {
  using lf_test::ThrowingKey;
  using ThrowList = lf::FRListRC<ThrowingKey, long>;
  ThrowList list;
  ASSERT_TRUE(list.insert(1, 1));
  ASSERT_TRUE(list.insert(3, 3));
  ThrowingKey::copies_until_throw = 1;  // the new node's copy of the key
  EXPECT_EQ(list.insert_checked(2, 2), ThrowList::InsertStatus::kNoMemory);
  EXPECT_EQ(ThrowingKey::copies_until_throw, 0);  // it did throw
  EXPECT_FALSE(list.contains(2));
  EXPECT_TRUE(list.validate_counts());
  ASSERT_TRUE(list.erase(1));
  ASSERT_TRUE(list.erase(3));
  EXPECT_EQ(list.free_count(), 2u);
  EXPECT_TRUE(list.validate_accounting());
  EXPECT_EQ(list.insert_checked(2, 2), ThrowList::InsertStatus::kInserted);
  EXPECT_EQ(list.size(), 1u);
  EXPECT_TRUE(list.validate_counts());
  EXPECT_TRUE(list.validate_accounting());
}

}  // namespace
