// Concurrent integration tests for FRSkipList (and, where a test says so,
// FRSkipListRC).
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <optional>
#include <thread>
#include <vector>

#include "lf/core/fr_skiplist.h"
#include "lf/core/fr_skiplist_rc.h"
#include "lf/instrument/counters.h"
#include "lf/reclaim/epoch.h"
#include "lf/util/random.h"

namespace {

using IntSkip = lf::FRSkipList<long, long>;

constexpr int kThreads = 4;

// Quiescent check of the global epoch domain these trials retire into:
// every slot's count matches its limbo and ready lists, and the shared
// count the orphans and the quarantine.
void expect_epoch_accounting() {
  EXPECT_TRUE(lf::reclaim::EpochDomain::global().validate_accounting());
}

TEST(FRSkipListConcurrent, DisjointRangeInserts) {
  IntSkip s;
  constexpr long kPerThread = 400;
  std::barrier start(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      start.arrive_and_wait();
      for (long i = 0; i < kPerThread; ++i) {
        const long k = t * kPerThread + i;
        ASSERT_TRUE(s.insert(k, k * 2));
      }
    });
  }
  for (auto& w : workers) w.join();
  expect_epoch_accounting();
  EXPECT_EQ(s.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (long k = 0; k < kThreads * kPerThread; ++k)
    ASSERT_EQ(*s.find(k), k * 2) << k;
  const auto rep = s.validate();
  EXPECT_TRUE(rep.ok) << rep.error;
}

// Regression guard for a concurrent-load pathology: 4 threads loading
// interleaved-ascending keys (thread t inserts t, t + 4, t + 8, ...) into
// an empty default list once ran at 11,000-16,000 essential steps/op in 2
// of 5 loads. A head-started descent costs about 31 steps/op here, so 64
// leaves room for contention noise while still catching that blow-up.
TEST(FRSkipListConcurrent, InterleavedAscendingLoadStaysLogarithmic) {
  IntSkip s;
  constexpr long kKeys = 131072;
  const auto before = lf::stats::aggregate();
  std::barrier start(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      start.arrive_and_wait();
      for (long k = t; k < kKeys; k += kThreads) ASSERT_TRUE(s.insert(k, k));
    });
  }
  for (auto& w : workers) w.join();
  expect_epoch_accounting();
  const auto delta = lf::stats::aggregate() - before;
  EXPECT_EQ(delta.op_insert, static_cast<std::uint64_t>(kKeys));
  EXPECT_LE(delta.steps_per_op(), 64.0);
  EXPECT_EQ(s.size(), static_cast<std::size_t>(kKeys));
  const auto rep = s.validate();
  EXPECT_TRUE(rep.ok) << rep.error;
}

TEST(FRSkipListConcurrent, ExactlyOneWinnerPerContestedKey) {
  IntSkip s;
  constexpr long kKeys = 150;
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
  expect_epoch_accounting();
  EXPECT_EQ(wins.load(), kKeys);
  EXPECT_EQ(s.size(), static_cast<std::size_t>(kKeys));
  EXPECT_TRUE(s.validate().ok);
}

TEST(FRSkipListConcurrent, ExactlyOneEraserPerKey) {
  IntSkip s;
  constexpr long kKeys = 150;
  for (long k = 0; k < kKeys; ++k) s.insert(k, k);
  std::atomic<long> wins{0};
  std::barrier start(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      start.arrive_and_wait();
      long local = 0;
      for (long k = 0; k < kKeys; ++k)
        if (s.erase(k)) ++local;
      wins.fetch_add(local);
    });
  }
  for (auto& w : workers) w.join();
  expect_epoch_accounting();
  EXPECT_EQ(wins.load(), kKeys);
  EXPECT_TRUE(s.empty());
  const auto rep = s.validate();
  EXPECT_TRUE(rep.ok) << rep.error;  // no superfluous nodes anywhere
}

TEST(FRSkipListConcurrent, InsertEraseRaceOnSameKeys) {
  // Inserters and erasers fight over a tiny hot key range: this is the
  // scenario that interrupts tower construction (root marked while the
  // tower is still being built), the trickiest path in Section 4.
  IntSkip s;
  std::atomic<bool> stop{false};
  std::barrier start(kThreads + 1);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      lf::Xoshiro256 rng(500 + t);
      start.arrive_and_wait();
      while (!stop.load(std::memory_order_acquire)) {
        const long k = static_cast<long>(rng.below(8));  // extremely hot
        if (rng.below(2) == 0) {
          s.insert(k, k);
        } else {
          s.erase(k);
        }
      }
    });
  }
  start.arrive_and_wait();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  stop.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  expect_epoch_accounting();
  const auto rep = s.validate();
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_LE(s.size(), 8u);
}

TEST(FRSkipListConcurrent, MixedChurnKeepsInvariants) {
  IntSkip s;
  std::atomic<bool> stop{false};
  std::barrier start(kThreads + 1);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      lf::Xoshiro256 rng(900 + t);
      start.arrive_and_wait();
      while (!stop.load(std::memory_order_acquire)) {
        const long k = static_cast<long>(rng.below(512));
        switch (rng.below(3)) {
          case 0: s.insert(k, k); break;
          case 1: s.erase(k); break;
          default: s.contains(k);
        }
      }
    });
  }
  start.arrive_and_wait();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  stop.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  expect_epoch_accounting();
  const auto rep = s.validate();
  EXPECT_TRUE(rep.ok) << rep.error;
  // Census sanity: towers counted once, incomplete towers only from
  // interrupted builds (allowed), every linked root unmarked.
  const auto census = s.census();
  EXPECT_EQ(census.towers, s.size());
}

// The core's step accounting under real parallelism: a deletion is one
// flag, one mark and one unlink C&S, and every node still linked was
// linked by one insertion C&S, so at quiescence the counters balance
// against the nodes validate() finds (on every level, tower nodes
// included).
TEST(FRSkipListConcurrent, ParallelChurnBalancesStepCounters) {
  IntSkip s;
  const auto before = lf::stats::aggregate();
  std::barrier start(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      lf::Xoshiro256 rng(1700 + t);
      start.arrive_and_wait();
      for (int i = 0; i < 20000; ++i) {
        const long k = static_cast<long>(rng.below(256));
        if (rng.below(2) == 0) {
          s.insert(k, k);
        } else {
          s.erase(k);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  expect_epoch_accounting();
  const auto delta = lf::stats::aggregate() - before;
  const auto rep = s.validate();
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_GT(delta.pdelete_cas, 0u);
  EXPECT_EQ(delta.flag_cas, delta.mark_cas);
  EXPECT_EQ(delta.mark_cas, delta.pdelete_cas);
  EXPECT_EQ(delta.insert_cas - delta.pdelete_cas, rep.node_count);
}

// Tower builds and erase cleanups resume each upper level from the node
// their first descent stepped down from there. Here those nodes are
// deleted under them: two threads build tall towers on even keys (and
// erase them between rounds) while two threads erase and reinsert
// the odd keys in between, which are every even key's predecessors on
// most levels. A marked predecessor must be left through its backlinks;
// at quiescence no superfluous node may be linked on any level. On
// FRSkipList the census must count every node validate() walks and the
// epoch accounting must hold; on FRSkipListRC, whose recorded predecessors
// are counted references, no node may be leaked or released twice.
template <typename S>
void expect_resumed_levels_survive_deleted_predecessors() {
  S s;
  constexpr long kKeys = 64;  // keys 0..kKeys-1; odd ones churn
  constexpr int kRounds = 128;
  auto tall = [](lf::Xoshiro256& rng) {
    return 6 + static_cast<int>(rng.below(7));  // 6..12
  };
  lf::Xoshiro256 fill_rng(4242);
  for (long k = 1; k < kKeys; k += 2)
    ASSERT_EQ(s.insert_with_height(k, k, tall(fill_rng)),
              S::InsertStatus::kInserted);

  std::atomic<int> tower_threads_left{2};
  std::barrier start(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&, t] {
      lf::Xoshiro256 rng(2100 + t);
      start.arrive_and_wait();
      for (int round = 0; round < kRounds; ++round) {
        // EXPECT, not ASSERT: a tower thread that returned early would leave
        // the churners spinning.
        for (long k = 2 * t; k < kKeys; k += 4)
          EXPECT_EQ(s.insert_with_height(k, k, tall(rng)),
                    S::InsertStatus::kInserted);
        // The last round keeps every other key: the towers it erases are
        // never reinserted, so only the erase cleanup removes them.
        const bool last = round + 1 == kRounds;
        for (long k = 2 * t; k < kKeys; k += 4) {
          if (!last || k % 8 >= 4) { EXPECT_TRUE(s.erase(k)); }
        }
      }
      tower_threads_left.fetch_sub(1, std::memory_order_release);
    });
  }
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&, t] {
      lf::Xoshiro256 rng(2200 + t);
      start.arrive_and_wait();
      // Each churner owns the odd keys 4i + 2t + 1, so it always finds
      // its key present, and every odd key is present again at the end.
      while (tower_threads_left.load(std::memory_order_acquire) > 0) {
        const long k =
            4 * static_cast<long>(rng.below(kKeys / 4)) + 2 * t + 1;
        ASSERT_TRUE(s.erase(k));
        ASSERT_EQ(s.insert_with_height(k, k, tall(rng)),
                  S::InsertStatus::kInserted);
      }
    });
  }
  for (auto& w : workers) w.join();

  // validate() fails on a superfluous node linked on any level.
  const auto rep = s.validate();
  ASSERT_TRUE(rep.ok) << rep.error;
  const std::size_t live = kKeys / 2 + kKeys / 4;  // odd keys, half the even
  EXPECT_EQ(s.size(), live);
  if constexpr (requires { s.census(); }) {
    expect_epoch_accounting();
    for (int v = 1; v <= S::kMaxTowerHeight + 1; ++v) {
      for (auto* p = s.head(v)->succ.load().right;
           p->kind != S::Node::Kind::kTail; p = p->succ.load().right) {
        ASSERT_FALSE(p->root()->succ.load().mark)
            << "superfluous node " << p->key << " linked on level " << v;
      }
    }
    const auto census = s.census();
    EXPECT_EQ(census.towers, live);
    std::size_t nodes_from_census = 0;
    for (const auto& [h, cnt] : census.height_counts)
      nodes_from_census += static_cast<std::size_t>(h) * cnt;
    EXPECT_EQ(rep.node_count, nodes_from_census);
  } else {
    EXPECT_TRUE(s.validate_accounting());
  }
}

TEST(FRSkipListConcurrent, ResumedLevelsSurviveDeletedPredecessors) {
  expect_resumed_levels_survive_deleted_predecessors<IntSkip>();
}

TEST(FRSkipListRCConcurrent, ResumedLevelsSurviveDeletedPredecessors) {
  expect_resumed_levels_survive_deleted_predecessors<
      lf::FRSkipListRC<long, long>>();
}

// Successor-key hints under churn. Stable keys 4i sit in tall towers and
// are never erased; three threads insert and erase the keys 4i+1 and 4i+2
// between them, so the stable nodes' hints keep moving both ways: too high
// between an insert C&S and its refresh, too low after an unlink. A reader
// meanwhile checks that every stable key is always found and that no key
// 4i+3, never inserted, ever is. At quiescence every hint must be exact.
TEST(FRSkipListConcurrent, StaleHintsNeverChangeResults) {
  IntSkip s;
  constexpr long kKeys = 256;
  constexpr int kChurners = kThreads - 1;
  constexpr int kOpsPerChurner = 20000;
  lf::Xoshiro256 fill_rng(4343);
  for (long k = 0; k < kKeys; k += 4)
    ASSERT_EQ(s.insert_with_height(
                  k, k, 4 + static_cast<int>(fill_rng.below(9))),
              IntSkip::InsertStatus::kInserted);

  std::atomic<int> churners_left{kChurners};
  std::atomic<long> wrong{0};
  std::atomic<long> reader_rounds{0};
  std::barrier start(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kChurners; ++t) {
    workers.emplace_back([&, t] {
      lf::Xoshiro256 rng(4400 + t);
      start.arrive_and_wait();
      for (int i = 0; i < kOpsPerChurner; ++i) {
        const long k = 4 * static_cast<long>(rng.below(kKeys / 4)) + 1 +
                       static_cast<long>(rng.below(2));
        if (rng.below(2) == 0) {
          s.insert_with_height(k, k, 1 + static_cast<int>(rng.below(12)));
        } else {
          s.erase(k);
        }
      }
      churners_left.fetch_sub(1, std::memory_order_release);
    });
  }
  workers.emplace_back([&] {
    start.arrive_and_wait();
    while (churners_left.load(std::memory_order_acquire) > 0) {
      for (long k = 0; k < kKeys; k += 4) {
        if (!s.contains(k)) wrong.fetch_add(1, std::memory_order_relaxed);
        if (s.contains(k + 3)) wrong.fetch_add(1, std::memory_order_relaxed);
      }
      reader_rounds.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (auto& w : workers) w.join();
  expect_epoch_accounting();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(reader_rounds.load(), 0);
  const auto rep = s.validate();
  EXPECT_TRUE(rep.ok) << rep.error;
  for (long k = 0; k < kKeys; k += 4) EXPECT_TRUE(s.contains(k)) << k;
}

// The top hint rises and falls under races (DESIGN.md §2, "Deviation: the
// top hint falls"). Two writers insert and erase towers of every height
// 1..23 on their own keys, so the tallest tower, and with it the hint,
// moves up and down all the time; two readers meanwhile look up a fixed
// set of never-erased keys, and keys never inserted, starting wherever
// the hint says. At quiescence validate() checks that no node sits above
// the hint and no superfluous node is linked.
template <typename S>
class SkipTopHintStress : public ::testing::Test {};
using SkipTypes =
    ::testing::Types<lf::FRSkipList<long, long>, lf::FRSkipListRC<long, long>>;
TYPED_TEST_SUITE(SkipTopHintStress, SkipTypes);

TYPED_TEST(SkipTopHintStress, TallTowersChurnUnderReaders) {
  using S = TypeParam;
  S s;
  constexpr long kKeys = 512;  // fixed keys 4i; writer t owns 4i + t + 1
  constexpr int kWriters = 2;
  constexpr int kOpsPerWriter = 20000;
  for (long k = 0; k < kKeys; k += 4)
    ASSERT_EQ(s.insert_with_height(k, k, 2), S::InsertStatus::kInserted);

  std::atomic<int> writers_left{kWriters};
  std::atomic<long> wrong{0};
  std::barrier start(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kWriters; ++t) {
    workers.emplace_back([&, t] {
      lf::Xoshiro256 rng(5100 + t);
      start.arrive_and_wait();
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const long k = 4 * static_cast<long>(rng.below(kKeys / 4)) + t + 1;
        if (rng.below(2) == 0) {
          const int h = 1 + static_cast<int>(rng.below(S::kMaxTowerHeight));
          s.insert_with_height(k, k, h);
        } else {
          s.erase(k);
        }
      }
      writers_left.fetch_sub(1, std::memory_order_release);
    });
  }
  for (int t = kWriters; t < kThreads; ++t) {
    workers.emplace_back([&] {
      start.arrive_and_wait();
      while (writers_left.load(std::memory_order_acquire) > 0) {
        for (long k = 0; k < kKeys; k += 4) {
          if (!s.contains(k)) wrong.fetch_add(1, std::memory_order_relaxed);
          if (s.contains(k + 3)) wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(wrong.load(), 0);
  const auto rep = s.validate();
  EXPECT_TRUE(rep.ok) << rep.error;
  if constexpr (requires { s.validate_accounting(); }) {
    EXPECT_TRUE(s.validate_accounting());
  } else {
    expect_epoch_accounting();
  }
  for (long k = 0; k < kKeys; k += 4) EXPECT_TRUE(s.contains(k)) << k;
}

// A find that stops on an upper node returns the value of that node's
// root, which must be an incarnation of the key that was in the set at
// some point during the find (DESIGN.md §2, "Deviation: searches stop at
// their key's tower"). One writer erases and reinserts key 301 with a
// tall tower and a fresh value per incarnation; incarnation i is inserted
// only after `begun` reaches i and erased before `ended` reaches i. So a
// find that read ended = e before it started and begun = b after it
// returned may only see an incarnation in (e, b]. Three readers check
// every find they make.
template <typename S>
class SkipStopAtKeyStress : public ::testing::Test {};
TYPED_TEST_SUITE(SkipStopAtKeyStress, SkipTypes);

TYPED_TEST(SkipStopAtKeyStress, FindSeesOnlyALiveIncarnation) {
  using S = TypeParam;
  S s;
  constexpr long kKey = 301;
  constexpr long kIncarnations = 10000;
  for (long k = 0; k < 600; k += 2)
    ASSERT_EQ(s.insert_with_height(k, k, 1 + static_cast<int>(k % 7)),
              S::InsertStatus::kInserted);

  std::atomic<long> begun{0}, ended{0};
  std::atomic<bool> done{false};
  std::atomic<long> wrong{0}, hits{0};
  std::barrier start(kThreads);
  std::vector<std::thread> workers;
  workers.emplace_back([&] {
    start.arrive_and_wait();
    for (long i = 1; i <= kIncarnations; ++i) {
      begun.store(i);
      const int h = 8 + static_cast<int>(i % 16);  // tall: 8..23
      if (s.insert_with_height(kKey, i, h) != S::InsertStatus::kInserted)
        wrong.fetch_add(1, std::memory_order_relaxed);
      if (!s.erase(kKey)) wrong.fetch_add(1, std::memory_order_relaxed);
      ended.store(i);
    }
    done.store(true);
  });
  for (int t = 1; t < kThreads; ++t) {
    workers.emplace_back([&] {
      start.arrive_and_wait();
      while (!done.load()) {
        const long e = ended.load();
        const std::optional<long> v = s.find(kKey);
        const long b = begun.load();
        if (!v) continue;
        hits.fetch_add(1, std::memory_order_relaxed);
        if (*v <= e || *v > b) wrong.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(hits.load(), 0);
  EXPECT_FALSE(s.contains(kKey));
  const auto rep = s.validate();
  EXPECT_TRUE(rep.ok) << rep.error;
  if constexpr (requires { s.validate_accounting(); }) {
    EXPECT_TRUE(s.validate_accounting());
  } else {
    expect_epoch_accounting();
  }
}

TEST(FRSkipListConcurrent, EpochReclamationFreesTowers) {
  lf::reclaim::EpochDomain domain;
  {
    lf::FRSkipList<long, long> s{lf::reclaim::EpochReclaimer(domain)};
    std::barrier start(kThreads);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        lf::Xoshiro256 rng(77 + t);
        start.arrive_and_wait();
        for (int i = 0; i < 15000; ++i) {
          const long k = static_cast<long>(rng.below(64));
          if (rng.below(2) == 0) {
            s.insert(k, k);
          } else {
            s.erase(k);
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    const auto rep = s.validate();
    ASSERT_TRUE(rep.ok) << rep.error;
    domain.drain();
    EXPECT_EQ(domain.retired_count(), 0u);
    EXPECT_TRUE(domain.validate_accounting());
  }
}

TEST(FRSkipListConcurrent, ReadersSeeOnlySaneValues) {
  IntSkip s;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    lf::Xoshiro256 rng(31);
    while (!stop.load(std::memory_order_acquire)) {
      const long k = static_cast<long>(rng.below(64));
      s.insert(k, k * 11);
      s.erase(static_cast<long>(rng.below(64)));
    }
  });
  std::thread reader([&] {
    lf::Xoshiro256 rng(32);
    for (int i = 0; i < 40000; ++i) {
      const long k = static_cast<long>(rng.below(64));
      const auto v = s.find(k);
      if (v.has_value()) { ASSERT_EQ(*v, k * 11); }
    }
    stop.store(true, std::memory_order_release);
  });
  reader.join();
  writer.join();
  expect_epoch_accounting();
  EXPECT_TRUE(s.validate().ok);
}

TEST(FRSkipListConcurrent, SearchesDuringHeavyDeletion) {
  // Searches must help remove superfluous towers without ever reporting a
  // key that was never inserted.
  IntSkip s;
  for (long k = 0; k < 2000; k += 2) s.insert(k, k);  // only even keys
  std::atomic<bool> stop{false};
  std::thread deleter([&] {
    for (long k = 0; k < 2000; k += 2) s.erase(k);
    stop.store(true, std::memory_order_release);
  });
  std::thread searcher([&] {
    lf::Xoshiro256 rng(8);
    while (!stop.load(std::memory_order_acquire)) {
      const long k = static_cast<long>(rng.below(2000));
      const auto v = s.find(k);
      if (k % 2 == 1) { ASSERT_FALSE(v.has_value()); }  // odd: never existed
      if (v.has_value()) { ASSERT_EQ(*v, k); }
    }
  });
  deleter.join();
  searcher.join();
  expect_epoch_accounting();
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.validate().ok);
}

}  // namespace
