// Tests for the linearizability checker itself, then live linearizability
// verification of the paper's structures under real concurrency.
#include <gtest/gtest.h>

#include <barrier>
#include <thread>
#include <vector>

#include "lf/chk/linearizability.h"
#include "lf/core/fr_list.h"
#include "lf/core/fr_list_noflag.h"
#include "lf/core/fr_skiplist.h"
#include "lf/core/fr_skiplist_rc.h"
#include "lf/util/random.h"

namespace {

using lf::chk::check_linearizable;
using lf::chk::Event;
using lf::chk::HistoryRecorder;
using lf::chk::OpKind;

Event ev(OpKind kind, std::uint32_t key, bool result, std::uint64_t invoke,
         std::uint64_t response) {
  return Event{kind, key, result, invoke, response};
}

// ---- checker unit tests ---------------------------------------------------

TEST(Checker, EmptyHistoryIsLinearizable) {
  EXPECT_TRUE(check_linearizable({}, 8).linearizable);
}

TEST(Checker, SequentialValidHistory) {
  std::vector<Event> h{
      ev(OpKind::kInsert, 1, true, 0, 1),
      ev(OpKind::kContains, 1, true, 2, 3),
      ev(OpKind::kErase, 1, true, 4, 5),
      ev(OpKind::kContains, 1, false, 6, 7),
      ev(OpKind::kErase, 1, false, 8, 9),
  };
  const auto res = check_linearizable(h, 8);
  EXPECT_TRUE(res.linearizable);
  EXPECT_EQ(res.chunks, 5u);
}

TEST(Checker, SequentialContradictionRejected) {
  // contains(1)=true before any insert: impossible.
  std::vector<Event> h{
      ev(OpKind::kContains, 1, true, 0, 1),
      ev(OpKind::kInsert, 1, true, 2, 3),
  };
  EXPECT_FALSE(check_linearizable(h, 8).linearizable);
}

TEST(Checker, DoubleSuccessfulEraseRejected) {
  std::vector<Event> h{
      ev(OpKind::kInsert, 2, true, 0, 1),
      ev(OpKind::kErase, 2, true, 2, 3),
      ev(OpKind::kErase, 2, true, 4, 5),
  };
  EXPECT_FALSE(check_linearizable(h, 8).linearizable);
}

TEST(Checker, OverlappingOpsAllowReordering) {
  // contains(3)=true overlaps the insert that makes it true: valid only
  // because the two overlap (insert may linearize first).
  std::vector<Event> h{
      ev(OpKind::kInsert, 3, true, 0, 5),
      ev(OpKind::kContains, 3, true, 1, 4),
  };
  EXPECT_TRUE(check_linearizable(h, 8).linearizable);
}

TEST(Checker, NonOverlappingOrderIsBinding) {
  // Same events but contains completes BEFORE insert begins: invalid.
  std::vector<Event> h{
      ev(OpKind::kContains, 3, true, 0, 1),
      ev(OpKind::kInsert, 3, true, 2, 3),
  };
  EXPECT_FALSE(check_linearizable(h, 8).linearizable);
}

TEST(Checker, ConcurrentDuplicateInsertsOneWinner) {
  std::vector<Event> h{
      ev(OpKind::kInsert, 4, true, 0, 10),
      ev(OpKind::kInsert, 4, false, 1, 9),
      ev(OpKind::kContains, 4, true, 12, 13),
  };
  EXPECT_TRUE(check_linearizable(h, 8).linearizable);
}

TEST(Checker, ConcurrentDuplicateInsertsBothWinningRejected) {
  std::vector<Event> h{
      ev(OpKind::kInsert, 4, true, 0, 10),
      ev(OpKind::kInsert, 4, true, 1, 9),
  };
  EXPECT_FALSE(check_linearizable(h, 8).linearizable);
}

TEST(Checker, InsertEraseRaceResolvable) {
  // insert(5) || erase(5)=true: erase must linearize after insert; fine.
  std::vector<Event> h{
      ev(OpKind::kInsert, 5, true, 0, 10),
      ev(OpKind::kErase, 5, true, 2, 8),
      ev(OpKind::kContains, 5, false, 12, 13),
  };
  EXPECT_TRUE(check_linearizable(h, 8).linearizable);
}

TEST(Checker, ChunkingSplitsAtQuiescence) {
  std::vector<Event> h{
      ev(OpKind::kInsert, 1, true, 0, 3),
      ev(OpKind::kInsert, 2, true, 1, 2),  // overlaps the first
      ev(OpKind::kErase, 1, true, 5, 6),   // quiescent gap before this
  };
  const auto res = check_linearizable(h, 8);
  EXPECT_TRUE(res.linearizable);
  EXPECT_EQ(res.chunks, 2u);
  EXPECT_EQ(res.largest_chunk, 2u);
}

TEST(Checker, RecorderMergesThreadLogs) {
  HistoryRecorder rec(2);
  const auto t0 = rec.begin();
  rec.end(0, OpKind::kInsert, 1, true, t0);
  const auto t1 = rec.begin();
  rec.end(1, OpKind::kContains, 1, true, t1);
  const auto h = rec.finish();
  ASSERT_EQ(h.size(), 2u);
  EXPECT_TRUE(check_linearizable(h, 4).linearizable);
}

// ---- live histories from the real structures ------------------------------

template <typename Set>
void record_and_check(std::uint64_t seed) {
  constexpr int kThreads = 3;
  constexpr int kOpsPerThread = 400;
  constexpr int kBurst = 16;  // barrier every kBurst ops: guarantees a
                              // quiescent cut, so every concurrent window
                              // fits the checker's 64-op solver even under
                              // heavy instrumentation (e.g. TSan builds)
  constexpr std::uint32_t kKeySpace = 6;  // tiny: maximizes real conflicts

  using Key = typename Set::key_type;
  Set set;
  HistoryRecorder rec(kThreads);
  std::barrier start(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      lf::Xoshiro256 rng(seed + static_cast<std::uint64_t>(t) * 977);
      start.arrive_and_wait();
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (i % kBurst == 0) start.arrive_and_wait();  // burst boundary
        const auto k = static_cast<std::uint32_t>(rng.below(kKeySpace));
        const auto kind = static_cast<OpKind>(rng.below(3));
        const auto t0 = rec.begin();
        bool result = false;
        switch (kind) {
          case OpKind::kInsert:
            result = set.insert(static_cast<Key>(k), k);
            break;
          case OpKind::kErase:
            result = set.erase(static_cast<Key>(k));
            break;
          case OpKind::kContains:
            result = set.contains(static_cast<Key>(k));
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
  EXPECT_EQ(res.events,
            static_cast<std::size_t>(kThreads) * kOpsPerThread);
}

TEST(LiveLinearizability, FRList) {
  for (std::uint64_t seed : {1u, 99u, 12345u})
    record_and_check<lf::FRList<long, long>>(seed);
}

// Both key types the skip list runs on most: <long, long> in the tests and
// <uint64_t, uint64_t> in lfbench.
TEST(LiveLinearizability, FRSkipList) {
  for (std::uint64_t seed : {2u, 88u, 54321u})
    record_and_check<lf::FRSkipList<long, long>>(seed);
  for (std::uint64_t seed : {5u, 66u, 24680u})
    record_and_check<lf::FRSkipList<std::uint64_t, std::uint64_t>>(seed);
}

// The counted skip list shares the descent, and its stop at a key's
// tower, with FRSkipList; its finger may also enter on the key's root.
TEST(LiveLinearizability, FRSkipListRC) {
  for (std::uint64_t seed : {4u, 55u, 13579u})
    record_and_check<lf::FRSkipListRC<long, long>>(seed);
}

TEST(LiveLinearizability, FRListNoFlag) {
  for (std::uint64_t seed : {3u, 77u, 31415u})
    record_and_check<lf::FRListNoFlag<long, long>>(seed);
}

}  // namespace
