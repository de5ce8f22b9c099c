// Node/tower reuse through the segment pool must be ABA-safe: a block
// returns to a freelist only via the reclaimer's deferred deleter, i.e.
// after the grace period, so no thread can carry a CAS expectation about a
// node across its reuse. These tests churn a tiny key range from several
// threads — the workload that maximizes recycling of just-freed blocks into
// concurrent inserts of the same keys — and validate the structures both
// structurally (validate()) and behaviorally (linearizability checker).
#include <gtest/gtest.h>

#include <barrier>
#include <cstdint>
#include <thread>
#include <vector>

#include "lf/chk/linearizability.h"
#include "lf/core/fr_list.h"
#include "lf/core/fr_skiplist.h"
#include "lf/mem/pool.h"
#include "lf/reclaim/epoch.h"
#include "lf/util/random.h"

namespace {

using lf::chk::check_linearizable;
using lf::chk::HistoryRecorder;
using lf::chk::OpKind;
using lf::mem::PoolTotals;
using lf::mem::pool_totals;
using lf::reclaim::EpochDomain;
using lf::reclaim::EpochReclaimer;

using FlatPooledSkipList = lf::FRSkipList<long, long>;
using PooledList = lf::FRList<long, long>;

// Multi-threaded churn on a small key range with an isolated epoch domain:
// every block cycles allocate -> link -> unlink -> retire -> recycle many
// times. Afterwards the structure must validate and the domain must drain
// to zero (every deleter ran; nothing leaked or double-freed).
template <typename Set>
void churn_and_validate() {
  EpochDomain domain;
  const PoolTotals before = pool_totals();
  {
    Set set{EpochReclaimer(domain)};
    constexpr int kThreads = 4;
    constexpr int kOpsPerThread = 60000;
    constexpr long kKeySpace = 32;  // tiny: constant recycle pressure
    std::barrier start(kThreads);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        lf::Xoshiro256 rng(0xabcdef0 + static_cast<std::uint64_t>(t));
        start.arrive_and_wait();
        for (int i = 0; i < kOpsPerThread; ++i) {
          const long k = static_cast<long>(rng.below(kKeySpace));
          switch (rng.below(4)) {
            case 0:
            case 1:
              set.insert(k, k);
              break;
            case 2:
              set.erase(k);
              break;
            default:
              set.contains(k);
              break;
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    const auto rep = set.validate();
    EXPECT_TRUE(rep.ok) << rep.error;
    domain.drain();
    EXPECT_EQ(domain.retired_count(), 0u);
    EXPECT_TRUE(domain.validate_accounting());
  }
  // The churn must have actually exercised the recycle path, or this test
  // proves nothing about reuse.
  const PoolTotals d = pool_totals() - before;
  EXPECT_GT(d.recycled_blocks, 1000u);
  EXPECT_EQ(d.oversize, 0u);  // every tower fits a pooled size class
  EXPECT_EQ(d.freed_blocks, d.fresh_blocks + d.recycled_blocks)
      << "allocate/free imbalance: something leaked or double-freed";
}

TEST(PoolReuse, FlatSkipListChurn) {
  churn_and_validate<FlatPooledSkipList>();
}

TEST(PoolReuse, PooledListChurn) { churn_and_validate<PooledList>(); }

// Behavioral check: histories recorded against the pooled structures under
// real concurrency must be linearizable. An ABA on a recycled block shows
// up here as an impossible operation outcome.
template <typename Set>
void record_and_check(std::uint64_t seed) {
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 400;
  constexpr int kBurst = 16;  // quiescent cut every kBurst ops keeps each
                              // concurrent window inside the solver's limit
  constexpr std::uint32_t kKeySpace = 6;

  Set set;
  HistoryRecorder rec(kThreads);
  std::barrier start(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      lf::Xoshiro256 rng(seed + static_cast<std::uint64_t>(t) * 977);
      start.arrive_and_wait();
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (i % kBurst == 0) start.arrive_and_wait();
        const auto k = static_cast<std::uint32_t>(rng.below(kKeySpace));
        const auto kind = static_cast<OpKind>(rng.below(3));
        const auto t0 = rec.begin();
        bool result = false;
        switch (kind) {
          case OpKind::kInsert:
            result = set.insert(static_cast<long>(k), k);
            break;
          case OpKind::kErase:
            result = set.erase(static_cast<long>(k));
            break;
          case OpKind::kContains:
            result = set.contains(static_cast<long>(k));
            break;
        }
        rec.end(t, kind, k, result, t0);
      }
    });
  }
  for (auto& w : workers) w.join();

  const auto res = check_linearizable(rec.finish(), kKeySpace);
  EXPECT_TRUE(res.linearizable)
      << "non-linearizable history! seed=" << seed
      << " events=" << res.events << " chunk=" << res.largest_chunk;
  EXPECT_EQ(res.skipped_chunks, 0u) << "window too wide to fully check";
}

TEST(PoolReuse, FlatSkipListLinearizable) {
  for (std::uint64_t seed : {11u, 222u, 3333u})
    record_and_check<FlatPooledSkipList>(seed);
}

TEST(PoolReuse, PooledListLinearizable) {
  for (std::uint64_t seed : {44u, 555u, 6666u})
    record_and_check<PooledList>(seed);
}

}  // namespace
