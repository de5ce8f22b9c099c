// Concurrent integration tests for FRList.
//
// On a single-core host these interleave via preemption; the assertions are
// all schedule-independent (exact-count semantics, invariants at
// quiescence), so they are meaningful regardless of core count.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <set>
#include <thread>
#include <vector>

#include "lf/core/fr_list.h"
#include "lf/instrument/counters.h"
#include "lf/reclaim/epoch.h"
#include "lf/util/random.h"

namespace {

using IntList = lf::FRList<long, long>;

constexpr int kThreads = 4;

TEST(FRListConcurrent, DisjointRangeInserts) {
  IntList list;
  constexpr long kPerThread = 500;
  std::barrier start(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      start.arrive_and_wait();
      for (long i = 0; i < kPerThread; ++i) {
        const long k = t * kPerThread + i;
        ASSERT_TRUE(list.insert(k, k * 2));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(list.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (long k = 0; k < kThreads * kPerThread; ++k) {
    ASSERT_TRUE(list.contains(k)) << k;
    ASSERT_EQ(*list.find(k), k * 2);
  }
  EXPECT_TRUE(list.validate().ok);
}

TEST(FRListConcurrent, ExactlyOneWinnerPerContestedKey) {
  IntList list;
  constexpr long kKeys = 200;
  std::atomic<long> wins{0};
  std::barrier start(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      start.arrive_and_wait();
      long local = 0;
      for (long k = 0; k < kKeys; ++k)
        if (list.insert(k, k)) ++local;
      wins.fetch_add(local);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(wins.load(), kKeys);  // each key inserted exactly once
  EXPECT_EQ(list.size(), static_cast<std::size_t>(kKeys));
  EXPECT_TRUE(list.validate().ok);
}

TEST(FRListConcurrent, ExactlyOneEraserPerKey) {
  IntList list;
  constexpr long kKeys = 200;
  for (long k = 0; k < kKeys; ++k) list.insert(k, k);
  std::atomic<long> wins{0};
  std::barrier start(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      start.arrive_and_wait();
      long local = 0;
      for (long k = 0; k < kKeys; ++k)
        if (list.erase(k)) ++local;
      wins.fetch_add(local);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(wins.load(), kKeys);  // each deletion reported exactly once
  EXPECT_TRUE(list.empty());
  EXPECT_TRUE(list.validate().ok);
}

TEST(FRListConcurrent, InsertEraseRace_NetCountConsistent) {
  // Each thread inserts its own key range then erases it; interleaved with
  // other threads doing the same. Net result must be empty.
  IntList list;
  constexpr long kPerThread = 300;
  std::barrier start(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      start.arrive_and_wait();
      for (long i = 0; i < kPerThread; ++i) {
        const long k = t * kPerThread + i;
        ASSERT_TRUE(list.insert(k, k));
        ASSERT_TRUE(list.contains(k));
        ASSERT_TRUE(list.erase(k));
        ASSERT_FALSE(list.contains(k));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_TRUE(list.empty());
  EXPECT_TRUE(list.validate().ok);
}

TEST(FRListConcurrent, AdjacentKeyDeletions) {
  // Deleting adjacent nodes concurrently exercises the flag/backlink
  // machinery hardest (the predecessor of one deletion IS the other's
  // target). Repeat many rounds.
  IntList list;
  constexpr long kKeys = 64;
  for (int round = 0; round < 30; ++round) {
    for (long k = 0; k < kKeys; ++k) list.insert(k, k);
    std::barrier start(kThreads);
    std::atomic<long> erased{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        start.arrive_and_wait();
        long local = 0;
        // Interleaved strides so deletions collide on neighbours.
        for (long k = t; k < kKeys; k += kThreads)
          if (list.erase(k)) ++local;
        for (long k = 0; k < kKeys; ++k)
          if (list.erase(k)) ++local;
        erased.fetch_add(local);
      });
    }
    for (auto& w : workers) w.join();
    ASSERT_EQ(erased.load(), kKeys);
    ASSERT_TRUE(list.empty());
    const auto rep = list.validate();
    ASSERT_TRUE(rep.ok) << rep.error;
  }
}

TEST(FRListConcurrent, MixedChurnKeepsInvariants) {
  IntList list;
  std::atomic<bool> stop{false};
  std::barrier start(kThreads + 1);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      lf::Xoshiro256 rng(1000 + t);
      start.arrive_and_wait();
      while (!stop.load(std::memory_order_acquire)) {
        const long k = static_cast<long>(rng.below(256));
        switch (rng.below(3)) {
          case 0: list.insert(k, k); break;
          case 1: list.erase(k); break;
          default: list.contains(k);
        }
      }
    });
  }
  start.arrive_and_wait();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  stop.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  const auto rep = list.validate();
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_LE(list.size(), 256u);
}

// The core's step accounting under real parallelism: a deletion is one
// flag, one mark and one unlink C&S, and every node still linked was
// linked by one insertion C&S, so at quiescence the counters balance
// against the nodes validate() finds.
TEST(FRListConcurrent, ParallelChurnBalancesStepCounters) {
  IntList list;
  const auto before = lf::stats::aggregate();
  std::barrier start(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      lf::Xoshiro256 rng(1600 + t);
      start.arrive_and_wait();
      for (int i = 0; i < 20000; ++i) {
        const long k = static_cast<long>(rng.below(256));
        if (rng.below(2) == 0) {
          list.insert(k, k);
        } else {
          list.erase(k);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto delta = lf::stats::aggregate() - before;
  const auto rep = list.validate();
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_GT(delta.pdelete_cas, 0u);
  EXPECT_EQ(delta.flag_cas, delta.mark_cas);
  EXPECT_EQ(delta.mark_cas, delta.pdelete_cas);
  EXPECT_EQ(delta.insert_cas - delta.pdelete_cas, rep.node_count);
}

TEST(FRListConcurrent, EpochReclamationActuallyFrees) {
  lf::reclaim::EpochDomain domain;
  {
    lf::FRList<long, long> list{lf::reclaim::EpochReclaimer(domain)};
    std::barrier start(kThreads);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        lf::Xoshiro256 rng(55 + t);
        start.arrive_and_wait();
        for (int i = 0; i < 20000; ++i) {
          const long k = static_cast<long>(rng.below(128));
          if (rng.below(2) == 0) {
            list.insert(k, k);
          } else {
            list.erase(k);
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    domain.drain();
    // With 160k ops over 128 keys, at least some thousands of nodes must
    // have been physically deleted, retired and freed.
    EXPECT_EQ(domain.retired_count(), 0u);
    EXPECT_TRUE(list.validate().ok);
  }
}

TEST(FRListConcurrent, ReadersDuringChurnSeeOnlySaneValues) {
  IntList list;
  // Values are derived from keys; a reader must never observe a torn pair.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    lf::Xoshiro256 rng(77);
    while (!stop.load(std::memory_order_acquire)) {
      const long k = static_cast<long>(rng.below(64));
      list.insert(k, k * 7);
      list.erase(static_cast<long>(rng.below(64)));
    }
  });
  std::thread reader([&] {
    lf::Xoshiro256 rng(78);
    for (int i = 0; i < 50000; ++i) {
      const long k = static_cast<long>(rng.below(64));
      const auto v = list.find(k);
      if (v.has_value()) { ASSERT_EQ(*v, k * 7); }
    }
    stop.store(true, std::memory_order_release);
  });
  reader.join();
  writer.join();
  EXPECT_TRUE(list.validate().ok);
}

}  // namespace
