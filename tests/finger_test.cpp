// Finger (search-hint) layer tests — the per-thread "start where the last
// search ended" optimization of DESIGN.md §10, as it remains in FRList,
// FRListRC and FRSkipListRC. FRSkipList has no finger (DESIGN.md §10.0);
// the zero-counter rows below pin that down too.
//
// Four properties are pinned down here:
//
//   * FAST PATH — a repeated search starts at the previously found node
//     and takes ZERO traversal steps, observed through the paper's step
//     counters (curr_update), not wall clock.
//
//   * VALIDATION — a finger left on a node that was since deleted,
//     reclaimed, or recycled is either recovered through its backlink
//     chain (counted as backlink_traversal) or rejected into a head
//     fallback; results stay correct and no retired memory is touched
//     (the whole file is meaningful under ASan, which the sanitizer CI
//     job runs).
//
//   * ISOLATION — hints are per (thread, structure instance); instances
//     never share or inherit each other's hints, even when a structure is
//     destroyed and a new one takes its place.
//
//   * NO FINGER, NO TRAFFIC — the finger-free FRSkipList never moves the
//     finger counters (the fuzz suite re-checks this under yields).
//
// The shared way cache (sync::FingerCache) is also tested on its own, with
// no structure involved: probe choice, empty/killed ways, and the save's
// frequency bookkeeping.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <thread>

#include "lf/core/fr_list.h"
#include "lf/core/fr_list_rc.h"
#include "lf/core/fr_skiplist.h"
#include "lf/core/fr_skiplist_rc.h"
#include "lf/instrument/counters.h"
#include "lf/reclaim/leaky.h"

namespace {

using lf::stats::aggregate;

// ---- Fast path: repeated searches take zero traversal steps ---------------

template <typename Set>
void expect_repeat_find_is_free(Set& set) {
  for (long k : {10, 20, 30, 40}) ASSERT_TRUE(set.insert(k, k));
  ASSERT_TRUE(set.find(20).has_value());  // installs the finger on node 20
  const auto before = aggregate();
  constexpr int kRepeats = 50;
  for (int i = 0; i < kRepeats; ++i) {
    ASSERT_TRUE(set.find(20).has_value());
  }
  const auto delta = aggregate() - before;
  EXPECT_EQ(delta.finger_hit, static_cast<std::uint64_t>(kRepeats));
  EXPECT_EQ(delta.finger_miss, 0u);
  // The finger IS the sought node: the search starts there, sees the next
  // key is larger, and stops without advancing once.
  EXPECT_EQ(delta.curr_update, 0u);
}

TEST(Finger, RepeatedFindIsFreeFRList) {
  lf::FRList<long, long> list;
  expect_repeat_find_is_free(list);
}

TEST(Finger, RepeatedFindIsFreeFRListRC) {
  lf::FRListRC<long, long> list;
  expect_repeat_find_is_free(list);
}

TEST(Finger, RepeatedFindIsFreeFRSkipListRC) {
  lf::FRSkipListRC<long, long> s;
  expect_repeat_find_is_free(s);
}

// ---- Multi-way hot set: k fingers serve k hot keys at once ----------------

// The set-associative upgrade's core promise: a working set of
// kFingerCacheWays distinct hot keys round-robins through the cache with every search a
// zero-step hit — the single-finger layer could only ever serve the LAST
// key. Two priming rounds let the way set converge (installs start at
// frequency zero and may briefly evict each other); after that the state is
// absorbing: every find refreshes its own way in place and nothing is ever
// replaced.
TEST(Finger, MultiWayHotSetAllFourKeysStayFree) {
  lf::FRList<long, long> list;
  for (long k = 10; k <= 80; k += 10) ASSERT_TRUE(list.insert(k, k));
  constexpr long kHot[] = {20, 40, 60, 80};
  for (int round = 0; round < 2; ++round)
    for (long k : kHot) ASSERT_TRUE(list.find(k).has_value());
  const auto before = aggregate();
  constexpr int kRounds = 25;
  for (int round = 0; round < kRounds; ++round)
    for (long k : kHot) ASSERT_TRUE(list.find(k).has_value());
  const auto delta = aggregate() - before;
  EXPECT_EQ(delta.finger_hit, static_cast<std::uint64_t>(4 * kRounds));
  EXPECT_EQ(delta.finger_miss, 0u);
  // Each find starts at ITS OWN cached bracket, not a neighbor's: zero
  // traversal steps, exactly like the single-key repeat tests above.
  EXPECT_EQ(delta.curr_update, 0u);
}

// Replacement policy: a frequently-hit way must survive a stream of
// one-shot cold keys. The colds DESCEND from the top of the key space
// (each cached cold bracket then sits on the wrong side of the next cold
// key), so every cold find is a guaranteed probe miss that forces a
// replacement — three per round, cycling the aging period several times
// over the run. The hot key sits above the whole cold range: its find must
// stay a ZERO-STEP hit every single round, which is possible only if the
// hot way is never chosen as the replacement victim. This is the test that
// rules out recency-only (clock) replacement: with three replacements per
// round a clock hand laps the set between hot references, clears the hot
// way's use bit and evicts it within a couple of rounds — only a frequency
// counter survives the pressure.
TEST(Finger, HotWaySurvivesColdMissStream) {
  lf::FRList<long, long> list;
  for (long k = 0; k <= 600; k += 2) ASSERT_TRUE(list.insert(k, k));
  constexpr long kHot = 601;
  ASSERT_TRUE(list.insert(kHot, kHot));
  // Build the hot way's frequency before the cold stream starts.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(list.find(kHot).has_value());
  constexpr int kRounds = 48;
  for (int round = 0; round < kRounds; ++round) {
    const auto before = aggregate();
    ASSERT_TRUE(list.find(kHot).has_value());
    const auto delta = aggregate() - before;
    EXPECT_EQ(delta.finger_hit, 1u) << "round " << round;
    EXPECT_EQ(delta.curr_update, 0u) << "round " << round;
    // Three distinct cold keys, never repeated, all below the hot key and
    // descending: deterministic misses, head-started searches.
    for (int j = 0; j < 3; ++j) {
      const long cold = 600 - 2 * (3 * round + j);
      const auto b = aggregate();
      ASSERT_TRUE(list.find(cold).has_value());
      const auto d = aggregate() - b;
      EXPECT_EQ(d.finger_miss, 1u) << "cold " << cold;
      EXPECT_EQ(d.finger_hit, 0u) << "cold " << cold;
    }
  }
  EXPECT_TRUE(list.validate().ok);
}

// ---- No finger: zero finger traffic ---------------------------------------

// The finger-free FRSkipList, under both reclaimers (epoch and leaky), must
// never move the counters.
TEST(Finger, FingerOffKeepsCountersAtZero) {
  lf::FRSkipList<long, long> s;
  lf::FRSkipList<long, long, std::less<long>, lf::reclaim::LeakyReclaimer> hs;
  const auto before = aggregate();
  for (long k = 0; k < 64; ++k) {
    s.insert(k, k);
    hs.insert(k, k);
  }
  for (int r = 0; r < 4; ++r) {
    for (long k = 0; k < 64; ++k) {
      s.find(k);
      hs.find(k);
    }
  }
  const auto delta = aggregate() - before;
  EXPECT_EQ(delta.finger_hit, 0u);
  EXPECT_EQ(delta.finger_miss, 0u);
  EXPECT_EQ(delta.finger_skip, 0u);
}

// ---- Validation: stale fingers recover via backlinks ----------------------

// Leaky reclamation makes the recovery deterministic: the token always
// matches, so a finger on a deleted node MUST take the backlink path (the
// paper's own recovery mechanism) rather than falling back to the head.
TEST(Finger, DeletedFingerRecoversThroughBacklink) {
  using List =
      lf::FRList<long, long, std::less<long>, lf::reclaim::LeakyReclaimer>;
  List list;
  for (long k : {10, 20, 30}) ASSERT_TRUE(list.insert(k, k));
  ASSERT_TRUE(list.find(20).has_value());  // finger -> node 20
  // A DIFFERENT thread erases 20, so this thread's finger still points at
  // the (now marked, backlinked, unlinked) node.
  std::thread eraser([&] { ASSERT_TRUE(list.erase(20)); });
  eraser.join();
  const auto before = aggregate();
  EXPECT_FALSE(list.find(20).has_value());
  const auto delta = aggregate() - before;
  EXPECT_EQ(delta.finger_hit, 1u);  // recovered, not abandoned
  EXPECT_GE(delta.backlink_traversal, 1u);
  EXPECT_TRUE(list.validate().ok);
}

// Epoch variant of the same shape, plus actual reclamation: after the
// fingered node is erased, churn advances the epoch until the victim is
// freed. The next search from the stale finger must reject it (token
// mismatch) without dereferencing the retired memory — this test is the
// ASan tripwire for the whole validation scheme.
TEST(Finger, ReclaimedFingerFallsBackToHead) {
  lf::FRList<long, long> s;
  for (long k = 0; k < 32; ++k) ASSERT_TRUE(s.insert(k, k));

  std::atomic<int> phase{0};
  std::optional<long> second_result;
  lf::stats::Snapshot worker_delta;
  std::thread worker([&] {
    ASSERT_TRUE(s.find(7).has_value());  // installs the finger
    phase.store(1, std::memory_order_release);
    while (phase.load(std::memory_order_acquire) != 2) {
      std::this_thread::yield();  // unpinned: epochs can advance past us
    }
    const auto before = aggregate();
    second_result = s.find(7);
    worker_delta = aggregate() - before;
  });

  while (phase.load(std::memory_order_acquire) != 1) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(s.erase(7));
  // Far beyond kAdvanceEvery retirements: the epoch advances several times
  // and node 7 is genuinely freed while the worker's finger still names it.
  for (int r = 0; r < 40; ++r) {
    for (long k = 100; k < 164; ++k) ASSERT_TRUE(s.insert(k, k));
    for (long k = 100; k < 164; ++k) ASSERT_TRUE(s.erase(k));
  }
  phase.store(2, std::memory_order_release);
  worker.join();

  EXPECT_FALSE(second_result.has_value());
  // The pin epoch moved, so every cached way fails the token check.
  EXPECT_EQ(worker_delta.finger_hit, 0u);
  EXPECT_EQ(worker_delta.finger_miss, 1u);
  EXPECT_TRUE(s.validate().ok);
}

// Reference-counted variant: the erased node is recycled IMMEDIATELY and
// its memory reused by an unrelated insert. The stale finger re-acquires
// the node, sees a bumped reuse stamp (a different incarnation), and must
// reject it.
TEST(Finger, RecycledFingerRejectedByReuseStamp) {
  lf::FRListRC<long, long> list;
  for (long k : {10, 20, 30}) ASSERT_TRUE(list.insert(k, k));
  ASSERT_TRUE(list.find(20).has_value());  // finger -> node 20
  std::thread helper([&] {
    ASSERT_TRUE(list.erase(20));     // node 20 goes to the free list
    ASSERT_TRUE(list.insert(99, 99));  // LIFO free list: reuses its memory
  });
  helper.join();
  const auto before = aggregate();
  EXPECT_FALSE(list.find(20).has_value());
  const auto delta = aggregate() - before;
  EXPECT_EQ(delta.finger_miss, 1u);
  EXPECT_TRUE(list.contains(99));
  EXPECT_TRUE(list.validate_counts());
}

// Per-way stamp validation: recycling ONE cached node must kill only that
// way. The other ways' nodes were never recycled, so their stamps still
// match and they keep serving zero-step hits.
TEST(Finger, RecycledWayRejectedWhileOtherWaysSurvive) {
  lf::FRListRC<long, long> list;
  for (long k : {10, 20, 30, 40, 50}) ASSERT_TRUE(list.insert(k, k));
  ASSERT_TRUE(list.find(20).has_value());  // way A -> node 20
  ASSERT_TRUE(list.find(40).has_value());  // way B -> node 40
  std::thread helper([&] {
    ASSERT_TRUE(list.erase(20));       // node 20 goes to the free list
    ASSERT_TRUE(list.insert(99, 99));  // LIFO free list: reuses its memory
  });
  helper.join();
  const auto before = aggregate();
  // Way B first: its bracket [40, 50] is untouched by the recycle.
  ASSERT_TRUE(list.find(40).has_value());
  const auto mid = aggregate() - before;
  EXPECT_EQ(mid.finger_hit, 1u);
  EXPECT_EQ(mid.finger_miss, 0u);
  EXPECT_EQ(mid.curr_update, 0u);
  // Way A: the re-acquired node carries a bumped reuse stamp — a different
  // incarnation — and must be rejected without poisoning way B.
  EXPECT_FALSE(list.find(20).has_value());
  const auto delta = aggregate() - before;
  EXPECT_EQ(delta.finger_miss, 1u);
  EXPECT_TRUE(list.contains(99));
  EXPECT_TRUE(list.validate_counts());
}

// ---- Isolation: hints are per-instance, ids never reused ------------------

TEST(Finger, InstancesDoNotShareHints) {
  lf::FRList<long, long> a;
  lf::FRList<long, long> b;
  ASSERT_TRUE(a.insert(100, 1));
  ASSERT_TRUE(b.insert(200, 2));
  // Interleave so each op runs with the OTHER structure's hint freshest.
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(a.contains(100));
    EXPECT_TRUE(b.contains(200));
    EXPECT_FALSE(a.contains(200));
    EXPECT_FALSE(b.contains(100));
  }
  EXPECT_TRUE(a.validate().ok);
  EXPECT_TRUE(b.validate().ok);
}

TEST(Finger, DestroyedInstanceLeavesNoUsableHint) {
  auto first = std::make_unique<lf::FRList<long, long>>();
  for (long k = 0; k < 16; ++k) ASSERT_TRUE(first->insert(k, k));
  ASSERT_TRUE(first->find(8).has_value());  // hint into `first`'s nodes
  first.reset();                            // nodes freed with the instance
  // A new instance gets a NEW id, so the old slot contents fail the id
  // check instead of being dereferenced (ASan-observable if they were).
  lf::FRList<long, long> second;
  for (long k = 0; k < 16; ++k) ASSERT_TRUE(second.insert(k, k));
  EXPECT_TRUE(second.find(8).has_value());
  EXPECT_TRUE(second.validate().ok);
}

// ---- The shared way cache on its own (sync::FingerCache) ------------------

// A stand-in node: the cache reads only `kind` and `key`, and only when
// saving.
struct FakeNode {
  enum class Kind : unsigned char { kHead, kInterior, kTail };
  Kind kind = Kind::kInterior;
  long key = 0;
};
using Cache =
    lf::sync::FingerCache<FakeNode, long, lf::chaos::Site::kListFingerReplace>;

FakeNode head_node() { return {FakeNode::Kind::kHead, 0}; }
FakeNode tail_node() { return {FakeNode::Kind::kTail, 0}; }

TEST(FingerCache, TightestContainingBracketWins) {
  FakeNode n10{.key = 10}, n20{.key = 20}, n40{.key = 40};
  Cache::Set set;
  const int wide = set.save(&n10, &n40, 1);   // [10, 40]
  const int tight = set.save(&n20, &n40, 1);  // [20, 40]
  ASSERT_NE(wide, tight);
  const auto p = set.probe(30, true, std::less<long>{});
  EXPECT_EQ(p.bracket, tight);
  EXPECT_EQ(p.fallback, -1);
}

TEST(FingerCache, FallbackIsLargestKeyLeftOfK) {
  FakeNode n10{.key = 10}, n15{.key = 15}, n20{.key = 20}, n25{.key = 25},
      n50{.key = 50}, n60{.key = 60};
  Cache::Set set;
  set.save(&n10, &n15, 1);                   // left of 30, bracket too low
  const int best = set.save(&n20, &n25, 1);  // left of 30, closer
  set.save(&n50, &n60, 1);                   // right of 30: never a start
  const auto p = set.probe(30, true, std::less<long>{});
  EXPECT_EQ(p.bracket, -1);
  EXPECT_EQ(p.fallback, best);
}

TEST(FingerCache, AnyKeyedWayBeatsAHeadWay) {
  FakeNode head = head_node(), tail = tail_node();
  FakeNode n5{.key = 5}, n10{.key = 10}, n15{.key = 15};
  Cache::Set brackets;
  brackets.save(&head, &tail, 1);  // brackets every key
  const int keyed = brackets.save(&n10, &tail, 1);
  EXPECT_EQ(brackets.probe(30, true, std::less<long>{}).bracket, keyed);
  Cache::Set fallbacks;
  fallbacks.save(&head, &n5, 1);
  const int keyed_fallback = fallbacks.save(&n10, &n15, 1);
  EXPECT_EQ(fallbacks.probe(30, true, std::less<long>{}).fallback,
            keyed_fallback);
}

// Closed searches may start at key == k, open (k - eps) ones may not.
TEST(FingerCache, ClosedAndOpenBoundsDifferAtKeyEqualsK) {
  FakeNode n20{.key = 20}, n40{.key = 40};
  Cache::Set set;
  const int w = set.save(&n20, &n40, 1);
  EXPECT_EQ(set.probe(20, true, std::less<long>{}).bracket, w);
  const auto open = set.probe(20, false, std::less<long>{});
  EXPECT_EQ(open.bracket, -1);
  EXPECT_EQ(open.fallback, -1);
  EXPECT_EQ(set.probe(21, false, std::less<long>{}).bracket, w);
}

TEST(FingerCache, KilledOrEmptyWayIsNeverReturned) {
  Cache::Set set;
  auto p = set.probe(30, true, std::less<long>{});
  EXPECT_EQ(p.bracket, -1);  // every way empty
  EXPECT_EQ(p.fallback, -1);
  FakeNode n10{.key = 10}, n40{.key = 40};
  const int w0 = set.save(&n10, &n40, 1);
  set.way[w0].node = nullptr;  // killed by a failed validation
  p = set.probe(30, true, std::less<long>{});
  EXPECT_EQ(p.bracket, -1);
  EXPECT_EQ(p.fallback, -1);
  // A way the caller's filter rejects (FRList: a stale token) is skipped.
  const int w = set.save(&n10, &n40, 7);
  EXPECT_EQ(set.probe(30, true, std::less<long>{},
                      [](const Cache::Way& e) { return e.proof == 8; })
                .bracket,
            -1);
  EXPECT_EQ(set.probe(30, true, std::less<long>{},
                      [](const Cache::Way& e) { return e.proof == 7; })
                .bracket,
            w);
}

TEST(FingerCache, SameNodeSaveBumpsFreqAndNewWayStartsAtZero) {
  FakeNode n10{.key = 10}, n20{.key = 20}, n30{.key = 30};
  Cache::Set set;
  const int a = set.save(&n10, &n20, 1);
  EXPECT_EQ(set.way[a].freq, 0);
  EXPECT_EQ(set.save(&n10, &n30, 2), a);  // refreshed in place
  EXPECT_EQ(set.way[a].freq, 1);
  EXPECT_EQ(set.way[a].proof, 2u);
  EXPECT_EQ(set.way[a].succ_key, 30);
  set.hit(a);
  EXPECT_EQ(set.way[a].freq, 2);
  const int b = set.save(&n20, &n30, 1);
  EXPECT_NE(b, a);
  EXPECT_EQ(set.way[b].freq, 0);
  // A named way (FRList's served bracket) is refreshed, not replaced.
  EXPECT_EQ(set.save(&n30, &n30, 1, b), b);
  EXPECT_EQ(set.way[b].freq, 1);
  EXPECT_EQ(set.way[b].node, &n30);
}

// The thread-local slot belongs to one instance at a time: another
// instance's claim drops every way, and the first instance then misses.
TEST(FingerCache, ClaimByAnotherInstanceDropsTheWays) {
  FakeNode n10{.key = 10}, n20{.key = 20};
  const std::uint64_t a = lf::sync::next_finger_instance();
  std::uint64_t b;  // a later id sharing a's direct-mapped slot
  do {
    b = lf::sync::next_finger_instance();
  } while ((b - a) % lf::sync::kFingerTlsSlots != 0);
  Cache& cache = Cache::of(a);
  ASSERT_EQ(&cache, &Cache::of(b));
  cache.claim(a).save(&n10, &n20, 1);
  ASSERT_NE(cache.find(a), nullptr);
  EXPECT_EQ(cache.find(b), nullptr);
  EXPECT_EQ(cache.claim(b).probe(15, true, std::less<long>{}).bracket, -1);
  EXPECT_EQ(cache.find(a), nullptr);
}

}  // namespace
