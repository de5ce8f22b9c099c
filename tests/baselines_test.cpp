// Baseline-specific tests: the behaviours that differentiate the baselines
// (restart counting, hazard-pointer reclamation, wait-free contains, the
// allocation registry) beyond the shared battery in set_typed_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <vector>

#include "lf/baselines/coarse_list.h"
#include "lf/baselines/harris_list.h"
#include "lf/baselines/lazy_list.h"
#include "lf/baselines/michael_list.h"
#include "lf/baselines/restart_skiplist.h"
#include "lf/baselines/rwlock_skiplist.h"
#include "lf/core/fr_list.h"
#include "lf/core/fr_list_noflag.h"
#include "lf/instrument/counters.h"
#include "lf/reclaim/epoch.h"
#include "lf/reclaim/hazard.h"
#include "lf/reclaim/leaky.h"
#include "lf/util/random.h"

namespace {

constexpr int kThreads = 4;

template <typename Set>
void churn(Set& set, int per_thread_ops, std::uint64_t key_space) {
  std::barrier start(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      lf::Xoshiro256 rng(10 + t);
      start.arrive_and_wait();
      for (int i = 0; i < per_thread_ops; ++i) {
        const long k = static_cast<long>(rng.below(key_space));
        switch (rng.below(3)) {
          case 0: set.insert(k, k); break;
          case 1: set.erase(k); break;
          default: set.contains(k);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
}

// ---- Harris ----------------------------------------------------------

TEST(HarrisList, RestartOnInterferenceIsCounted) {
  lf::HarrisList<long, long, std::less<long>, lf::reclaim::LeakyReclaimer>
      list;
  for (long k = 1; k <= 5; ++k) list.insert(k, k);
  decltype(list)::InsertCursor cur;
  ASSERT_TRUE(list.insert_locate(6, 6, cur));
  ASSERT_TRUE(list.erase(5));  // mark the located predecessor's target
  const auto before = lf::stats::aggregate();
  EXPECT_EQ(list.insert_try_once(cur), decltype(list)::TryResult::kRetry);
  const auto delta = lf::stats::aggregate() - before;
  EXPECT_GE(delta.restart, 1u);
  // Harris's recovery re-walks the list from the head: the traversal cost
  // covers all preceding nodes, unlike FRList's local backlink recovery.
  EXPECT_GE(delta.curr_update, 4u);
  EXPECT_EQ(list.insert_try_once(cur),
            decltype(list)::TryResult::kInserted);
  EXPECT_TRUE(list.contains(6));
}

TEST(HarrisList, SearchUnlinksMarkedChains) {
  lf::HarrisList<long, long> list;
  for (long k = 0; k < 20; ++k) list.insert(k, k);
  for (long k = 5; k < 15; ++k) list.erase(k);
  EXPECT_EQ(list.size(), 10u);
  for (long k = 5; k < 15; ++k) EXPECT_FALSE(list.contains(k));
  for (long k = 0; k < 5; ++k) EXPECT_TRUE(list.contains(k));
}

TEST(HarrisList, ConcurrentChurnStaysConsistent) {
  lf::HarrisList<long, long> list;
  churn(list, 15000, 128);
  // After quiescence each key is either present or absent, consistently.
  for (long k = 0; k < 128; ++k) {
    const bool c = list.contains(k);
    EXPECT_EQ(c, list.find(k).has_value());
  }
  EXPECT_LE(list.size(), 128u);
}

// ---- Michael ----------------------------------------------------------

TEST(MichaelList, ConcurrentChurnStaysConsistent) {
  lf::MichaelList<long, long> list;
  churn(list, 15000, 128);
  for (long k = 0; k < 128; ++k)
    EXPECT_EQ(list.contains(k), list.find(k).has_value());
  EXPECT_LE(list.size(), 128u);
}

TEST(MichaelListHP, BasicSemantics) {
  lf::reclaim::HazardDomain domain;
  lf::MichaelListHP<long, long> list(domain);
  EXPECT_TRUE(list.insert(1, 10));
  EXPECT_TRUE(list.insert(2, 20));
  EXPECT_FALSE(list.insert(1, 11));
  EXPECT_EQ(*list.find(2), 20);
  EXPECT_TRUE(list.erase(1));
  EXPECT_FALSE(list.erase(1));
  EXPECT_FALSE(list.contains(1));
  EXPECT_EQ(list.size(), 1u);
}

TEST(MichaelListHP, NodesAreReclaimedThroughHazardDomain) {
  lf::reclaim::HazardDomain domain;
  {
    lf::MichaelListHP<long, long> list(domain);
    const auto before = lf::stats::aggregate();
    for (int round = 0; round < 200; ++round) {
      for (long k = 0; k < 30; ++k) list.insert(k, k);
      for (long k = 0; k < 30; ++k) list.erase(k);
    }
    domain.scan();
    const auto delta = lf::stats::aggregate() - before;
    EXPECT_EQ(delta.node_retired, 200u * 30u);
    EXPECT_GT(delta.node_freed, 0u);
    EXPECT_EQ(domain.retired_count(), 0u);
  }
}

TEST(MichaelListHP, ConcurrentChurnStaysConsistent) {
  lf::reclaim::HazardDomain domain;
  lf::MichaelListHP<long, long> list(domain);
  churn(list, 10000, 64);
  for (long k = 0; k < 64; ++k)
    EXPECT_EQ(list.contains(k), list.find(k).has_value());
}

// ---- FRListNoFlag (ablation) -------------------------------------------

TEST(FRListNoFlag, SequentialSemantics) {
  lf::FRListNoFlag<long, long> list;
  for (long k = 0; k < 100; ++k) EXPECT_TRUE(list.insert(k, k * 2));
  EXPECT_FALSE(list.insert(50, 0));
  for (long k = 0; k < 100; k += 2) EXPECT_TRUE(list.erase(k));
  EXPECT_EQ(list.size(), 50u);
  for (long k = 1; k < 100; k += 2) EXPECT_EQ(*list.find(k), k * 2);
}

TEST(FRListNoFlag, ConcurrentChurnStaysConsistent) {
  lf::FRListNoFlag<long, long> list;
  churn(list, 15000, 128);
  for (long k = 0; k < 128; ++k)
    EXPECT_EQ(list.contains(k), list.find(k).has_value());
}

TEST(FRListNoFlag, BacklinksStillEnableRecovery) {
  // Sequentially: erase a node, then verify inserts around it still work
  // (the recovery path is exercised under concurrency; here we check the
  // structure stays coherent).
  lf::FRListNoFlag<long, long> list;
  for (long k = 0; k < 10; ++k) list.insert(k, k);
  for (long k = 3; k < 7; ++k) list.erase(k);
  EXPECT_TRUE(list.insert(5, 55));
  EXPECT_EQ(*list.find(5), 55);
  EXPECT_EQ(list.size(), 7u);
}

// ---- E7(a): the deterministic stale-hint schedule ----------------------
// bench_backlink_ablation's part (a), pinned. Keys 0..m are in the list and
// an insert has located the end (predecessor = node m). Without flags, the
// deletions of 1..m complete left to right with hints located beforehand,
// so backlink(i) = node i-1 is already marked for i >= 2, and the insert's
// recovery walks all m backlinks. FRList deletes the same nodes; its
// flagged predecessors keep every backlink pointing at the live anchor, so
// recovery is one hop. One global epoch guard spans each schedule: no node
// is freed while a cursor still points at it.

std::uint64_t noflag_stale_hint_hops(long m) {
  using List = lf::FRListNoFlag<long, long>;
  List list;
  [[maybe_unused]] auto guard = lf::reclaim::EpochDomain::global().guard();
  for (long k = 0; k <= m; ++k) list.insert(k, k);  // 0 is the anchor
  List::InsertCursor ins;
  EXPECT_TRUE(list.insert_locate(m + 1, m + 1, ins));
  std::vector<List::EraseCursor> cursors(static_cast<std::size_t>(m));
  for (long i = 1; i <= m; ++i)
    EXPECT_TRUE(list.erase_locate(i, cursors[static_cast<std::size_t>(i - 1)]));
  for (auto& cur : cursors) EXPECT_TRUE(list.erase_complete(cur));
  const auto before = lf::stats::tls().read();
  EXPECT_TRUE(list.insert_complete(ins));
  const auto delta = lf::stats::tls().read() - before;
  EXPECT_EQ(list.size(), 2u);  // the anchor and m + 1
  return delta.backlink_traversal;
}

std::uint64_t fr_stale_hint_hops(long m) {
  lf::FRList<long, long> list;
  [[maybe_unused]] auto guard = lf::reclaim::EpochDomain::global().guard();
  for (long k = 0; k <= m; ++k) list.insert(k, k);
  lf::FRList<long, long>::InsertCursor cur;
  EXPECT_TRUE(list.insert_locate(m + 1, m + 1, cur));
  for (long i = 1; i <= m; ++i) EXPECT_TRUE(list.erase(i));
  const auto before = lf::stats::tls().read();
  EXPECT_TRUE(list.insert_complete(cur));
  const auto delta = lf::stats::tls().read() - before;
  EXPECT_EQ(list.size(), 2u);
  return delta.backlink_traversal;
}

TEST(StaleHintSchedule, NoFlagWalksOneBacklinkPerDeletion) {
  for (long m : {8L, 64L}) {
    EXPECT_EQ(noflag_stale_hint_hops(m), static_cast<std::uint64_t>(m))
        << "m = " << m;
  }
}

TEST(StaleHintSchedule, FRListWalksOneBacklink) {
  for (long m : {8L, 64L}) EXPECT_EQ(fr_stale_hint_hops(m), 1u) << "m = " << m;
}

// ---- The four mark-only lists (mark::Core) ------------------------------

template <typename List>
class MarkOnlyList : public ::testing::Test {};

using MarkOnlyLists =
    ::testing::Types<lf::HarrisList<long, long>, lf::MichaelList<long, long>,
                     lf::MichaelListHP<long, long>,
                     lf::FRListNoFlag<long, long>>;
TYPED_TEST_SUITE(MarkOnlyList, MarkOnlyLists);

// E10's one-thread identity: without interference every C&S succeeds, a
// deletion is exactly one mark and one unlink, an insertion one insert
// C&S, and no operation ever needs its recovery.
TYPED_TEST(MarkOnlyList, OneThreadCasIdentity) {
  TypeParam list;
  lf::Xoshiro256 rng(37);
  std::uint64_t inserted = 0;
  std::uint64_t erased = 0;
  const auto before = lf::stats::tls().read();
  for (int i = 0; i < 20000; ++i) {
    const long k = static_cast<long>(rng.below(256));
    switch (rng.below(10)) {
      case 0: case 1: case 2: inserted += list.insert(k, k); break;
      case 3: case 4: case 5: erased += list.erase(k); break;
      default: list.contains(k);
    }
  }
  const auto d = lf::stats::tls().read() - before;
  EXPECT_GT(inserted, 0u);
  EXPECT_GT(erased, 0u);
  EXPECT_EQ(d.flag_cas, 0u);
  EXPECT_EQ(d.mark_cas, erased);
  EXPECT_EQ(d.pdelete_cas, erased);
  EXPECT_EQ(d.insert_cas, inserted);
  EXPECT_EQ(d.cas_failures(), 0u);
  EXPECT_EQ(d.restart, 0u);
  EXPECT_EQ(d.backlink_traversal, 0u);
  EXPECT_EQ(list.size(), inserted - erased);
}

template <typename List>
class MarkOnlyRecovery : public ::testing::Test {};

using RecoveringLists =
    ::testing::Types<lf::HarrisList<long, long>, lf::MichaelList<long, long>,
                     lf::FRListNoFlag<long, long>>;
TYPED_TEST_SUITE(MarkOnlyRecovery, RecoveringLists);

// HarrisList.RestartOnInterferenceIsCounted for each list: an insert's
// located predecessor is deleted before its C&S. Harris and Michael
// recover by a restart from the head; FRListNoFlag by its backlinks.
TYPED_TEST(MarkOnlyRecovery, FailedInsertCasRecoversTheListsWay) {
  constexpr bool kBacklinks =
      std::is_same_v<TypeParam, lf::FRListNoFlag<long, long>>;
  TypeParam list;
  [[maybe_unused]] auto guard = lf::reclaim::EpochDomain::global().guard();
  for (long k = 1; k <= 5; ++k) list.insert(k, k);
  typename TypeParam::InsertCursor cur;
  ASSERT_TRUE(list.insert_locate(6, 6, cur));
  ASSERT_TRUE(list.erase(5));
  const auto before = lf::stats::tls().read();
  EXPECT_EQ(list.insert_try_once(cur), TypeParam::TryResult::kRetry);
  const auto delta = lf::stats::tls().read() - before;
  if (kBacklinks) {
    EXPECT_EQ(delta.restart, 0u);
    EXPECT_GE(delta.backlink_traversal, 1u);
  } else {
    EXPECT_GE(delta.restart, 1u);
    EXPECT_EQ(delta.backlink_traversal, 0u);
  }
  EXPECT_EQ(list.insert_try_once(cur), TypeParam::TryResult::kInserted);
  EXPECT_TRUE(list.contains(6));
  EXPECT_EQ(list.size(), 5u);
}

// ---- Lazy list ---------------------------------------------------------

TEST(LazyList, WaitFreeContainsDuringWriterStall) {
  // contains() must not block even while a writer holds node locks: since
  // we cannot suspend a thread mid-operation portably, approximate by
  // checking contains() never takes locks (it compiles against const nodes
  // and completes during heavy write churn).
  lf::LazyList<long, long> list;
  for (long k = 0; k < 64; ++k) list.insert(k, k);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    lf::Xoshiro256 rng(5);
    while (!stop.load()) {
      const long k = static_cast<long>(rng.below(64));
      list.erase(k);
      list.insert(k, k);
    }
  });
  for (int i = 0; i < 30000; ++i) {
    const long k = i % 64;
    list.contains(k);  // must always return (liveness)
  }
  stop.store(true);
  writer.join();
  SUCCEED();
}

TEST(LazyList, ConcurrentChurnStaysConsistent) {
  lf::LazyList<long, long> list;
  churn(list, 10000, 128);
  for (long k = 0; k < 128; ++k)
    EXPECT_EQ(list.contains(k), list.find(k).has_value());
}

// ---- Coarse list ---------------------------------------------------------

TEST(CoarseList, ConcurrentChurnStaysConsistent) {
  lf::CoarseList<long, long> list;
  churn(list, 10000, 128);
  for (long k = 0; k < 128; ++k)
    EXPECT_EQ(list.contains(k), list.find(k).has_value());
}

// ---- Restart skip list ----------------------------------------------------

TEST(RestartSkipList, SequentialSemantics) {
  lf::RestartSkipList<long, long> s;
  for (long k = 0; k < 500; ++k) EXPECT_TRUE(s.insert(k, k * 3));
  EXPECT_FALSE(s.insert(100, 0));
  for (long k = 0; k < 500; ++k) EXPECT_EQ(*s.find(k), k * 3);
  for (long k = 0; k < 500; k += 2) EXPECT_TRUE(s.erase(k));
  EXPECT_FALSE(s.erase(0));
  EXPECT_EQ(s.size(), 250u);
  for (long k = 1; k < 500; k += 2) EXPECT_TRUE(s.contains(k));
  for (long k = 0; k < 500; k += 2) EXPECT_FALSE(s.contains(k));
}

TEST(RestartSkipList, ConcurrentChurnStaysConsistent) {
  lf::RestartSkipList<long, long> s;
  churn(s, 15000, 128);
  for (long k = 0; k < 128; ++k)
    EXPECT_EQ(s.contains(k), s.find(k).has_value());
  EXPECT_LE(s.size(), 128u);
}

TEST(RestartSkipList, ExactlyOneWinnerPerContestedKey) {
  lf::RestartSkipList<long, long> s;
  constexpr long kKeys = 100;
  std::atomic<long> wins{0};
  std::barrier start(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      start.arrive_and_wait();
      long local = 0;
      for (long k = 0; k < kKeys; ++k)
        if (s.insert(k, k)) ++local;
      wins.fetch_add(local);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(wins.load(), kKeys);
  EXPECT_EQ(s.size(), static_cast<std::size_t>(kKeys));
}

// ---- RW-locked skip list ---------------------------------------------------

TEST(RWLockSkipList, SequentialSemantics) {
  lf::RWLockSkipList<long, long> s;
  for (long k = 0; k < 500; ++k) EXPECT_TRUE(s.insert(k, k));
  EXPECT_FALSE(s.insert(0, 0));
  for (long k = 0; k < 500; k += 5) EXPECT_TRUE(s.erase(k));
  EXPECT_EQ(s.size(), 400u);
  EXPECT_FALSE(s.contains(5));
  EXPECT_TRUE(s.contains(6));
}

TEST(RWLockSkipList, ConcurrentChurnStaysConsistent) {
  lf::RWLockSkipList<long, long> s;
  churn(s, 8000, 128);
  for (long k = 0; k < 128; ++k)
    EXPECT_EQ(s.contains(k), s.find(k).has_value());
}

}  // namespace
