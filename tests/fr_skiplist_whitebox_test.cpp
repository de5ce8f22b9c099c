// White-box tests for FRSkipList: tower retirement accounting, per-level
// structure after deletions, the three-step protocol at every level, and
// the first() accessor the priority-queue adapter relies on, the flat
// tower block's address arithmetic, and the exception paths of tower
// construction, searches that stop at their key's tower, and the
// successor-key hint.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "lf/chaos/chaos.h"
#include "lf/core/fr_skiplist.h"
#include "lf/core/fr_skiplist_rc.h"
#include "lf/instrument/counters.h"
#include "lf/mem/pool.h"
#include "lf/reclaim/epoch.h"
#include "lf/util/random.h"
#include "throwing_key.h"

namespace {

using Skip = lf::FRSkipList<long, long>;

TEST(FRSkipListWhitebox, EraseRemovesKeyFromEveryLevel) {
  Skip s;
  for (long k = 0; k < 300; ++k) s.insert(k, k);
  ASSERT_TRUE(s.erase(150));
  // Walk every level: no node with key 150 may remain linked.
  for (int v = 1; v <= 23; ++v) {
    for (auto* p = s.head(v)->succ.load().right;
         p->kind != Skip::Node::Kind::kTail; p = p->succ.load().right) {
      ASSERT_NE(p->key, 150) << "level " << v;
    }
  }
}

TEST(FRSkipListWhitebox, TowersAreRetiredWholeAndFreed) {
  lf::reclaim::EpochDomain domain;
  {
    Skip s{lf::reclaim::EpochReclaimer(domain)};
    const auto before = lf::stats::aggregate();
    for (long k = 0; k < 1000; ++k) s.insert(k, k);
    for (long k = 0; k < 1000; ++k) ASSERT_TRUE(s.erase(k));
    domain.drain();
    const auto delta = lf::stats::aggregate() - before;
    // Every tower must have been retired (as one block) and, after drain,
    // freed.
    // retired == freed means no retirement leaked and none was doubled (a
    // double retire would crash in free).
    EXPECT_GE(delta.node_retired, 1000u);
    EXPECT_EQ(delta.node_retired, delta.node_freed);
    EXPECT_EQ(domain.retired_count(), 0u);
  }
}

TEST(FRSkipListWhitebox, DeletionRunsThreeStepsPerLevel) {
  Skip s;
  // Insert until we get a tower of height >= 2 and capture its key.
  long tall_key = -1;
  for (long k = 0; k < 200 && tall_key < 0; ++k) {
    s.insert(k, k);
    for (auto* p = s.head(2)->succ.load().right;
         p->kind != Skip::Node::Kind::kTail; p = p->succ.load().right) {
      if (p->key == k) tall_key = k;
    }
  }
  ASSERT_GE(tall_key, 0) << "no tall tower in 200 geometric draws?!";

  // Count the tower's height.
  int height = 1;
  for (int v = 2; v <= 23; ++v) {
    bool found = false;
    for (auto* p = s.head(v)->succ.load().right;
         p->kind != Skip::Node::Kind::kTail; p = p->succ.load().right) {
      if (p->key == tall_key) found = true;
    }
    if (found) height = v;
  }

  const auto before = lf::stats::aggregate();
  ASSERT_TRUE(s.erase(tall_key));
  const auto delta = lf::stats::aggregate() - before;
  // One flag+mark+unlink triple per level of the tower.
  EXPECT_EQ(delta.flag_cas, static_cast<std::uint64_t>(height));
  EXPECT_EQ(delta.mark_cas, static_cast<std::uint64_t>(height));
  EXPECT_EQ(delta.pdelete_cas, static_cast<std::uint64_t>(height));
}

TEST(FRSkipListWhitebox, FirstReturnsSmallestRegularKey) {
  Skip s;
  EXPECT_FALSE(s.first().has_value());
  s.insert(50, 500);
  s.insert(20, 200);
  s.insert(80, 800);
  auto front = s.first();
  ASSERT_TRUE(front.has_value());
  EXPECT_EQ(front->first, 20);
  EXPECT_EQ(front->second, 200);
  s.erase(20);
  EXPECT_EQ(s.first()->first, 50);
  s.erase(50);
  s.erase(80);
  EXPECT_FALSE(s.first().has_value());
}

TEST(FRSkipListWhitebox, ValidateCountsMatchCensus) {
  Skip s;
  for (long k = 0; k < 5000; ++k) s.insert(k * 3, k);
  const auto rep = s.validate();
  ASSERT_TRUE(rep.ok) << rep.error;
  const auto census = s.census();
  std::size_t nodes_from_census = 0;
  for (const auto& [h, cnt] : census.height_counts)
    nodes_from_census += static_cast<std::size_t>(h) * cnt;
  EXPECT_EQ(rep.node_count, nodes_from_census);
  EXPECT_EQ(census.towers, 5000u);
}

// Stores node's successor word with both tag bits set. pack() asserts INV5,
// so store_unsynchronized cannot write it in a Debug build; SuccField is
// standard-layout with the atomic word as its only data member, so the two
// are pointer-interconvertible and the word can be written directly.
void store_marked_and_flagged(Skip::Node* node) {
  using Field = lf::sync::SuccField<Skip::Node>;
  static_assert(std::is_standard_layout_v<Field>);
  auto& word = *reinterpret_cast<std::atomic<std::uintptr_t>*>(&node->succ);
  word.store(reinterpret_cast<std::uintptr_t>(node->succ.load().right) |
             Field::kMarkBit | Field::kFlagBit);
}

TEST(FRSkipListWhitebox, ValidateReportsInv5) {
  Skip s;
  for (long k = 1; k <= 3; ++k) s.insert_with_height(k, k, 2);
  Skip::Node* upper = s.head(2)->succ.load().right->succ.load().right;
  ASSERT_EQ(upper->key, 2);
  ASSERT_EQ(upper->level, 2);
  const auto saved = upper->succ.load();
  store_marked_and_flagged(upper);
  const auto rep = s.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("INV5"), std::string::npos) << rep.error;
  upper->succ.store_unsynchronized(saved);
  EXPECT_TRUE(s.validate().ok);
}

TEST(FRSkipListWhitebox, TopHintNeverExceedsTallestTower) {
  Skip s;
  for (long k = 0; k < 3000; ++k) s.insert(k, k);
  const auto census = s.census();
  int tallest = 0;
  for (const auto& [h, cnt] : census.height_counts) tallest = h;
  EXPECT_LE(s.top_level_hint(), tallest + 1);
  EXPECT_GE(s.top_level_hint(), tallest);
}

template <typename S>
void expect_valid(const S& s) {
  const auto rep = s.validate();
  ASSERT_TRUE(rep.ok) << rep.error;
  if constexpr (requires { s.validate_accounting(); }) {
    ASSERT_TRUE(s.validate_accounting());  // no node leaked or freed twice
  }
}

// The top hint follows the tallest live tower in both skip lists (DESIGN.md
// §2, "Deviation: the top hint falls").
template <typename S>
class SkipTopHint : public ::testing::Test {};
using SkipTypes =
    ::testing::Types<lf::FRSkipList<long, long>, lf::FRSkipListRC<long, long>>;
TYPED_TEST_SUITE(SkipTopHint, SkipTypes);

// Coin-flip towers, drawn by the test so it knows the tallest live one,
// then one height-23 tower that is erased again. On one thread the hint is
// exact: it falls back to the tallest remaining tower after the tall
// erase and after every erase of a tallest tower, and to 1 once the list
// is empty.
TYPED_TEST(SkipTopHint, TopHintFallsWhenTallestTowerErased) {
  using S = TypeParam;
  S s;
  lf::Xoshiro256 rng(2026);
  std::map<long, int> height_of;
  std::multiset<int> heights;
  for (long k = 0; k < 3000; ++k) {
    const int h = rng.tower_height(S::kMaxTowerHeight);
    ASSERT_EQ(s.insert_with_height(k, k, h), S::InsertStatus::kInserted);
    height_of[k] = h;
    heights.insert(h);
  }
  ASSERT_EQ(s.top_level_hint(), *heights.rbegin());
  ASSERT_LT(*heights.rbegin(), S::kMaxTowerHeight);

  ASSERT_EQ(s.insert_with_height(-1, -1, S::kMaxTowerHeight),
            S::InsertStatus::kInserted);
  EXPECT_EQ(s.top_level_hint(), S::kMaxTowerHeight);
  ASSERT_TRUE(s.erase(-1));
  EXPECT_EQ(s.top_level_hint(), *heights.rbegin());
  expect_valid(s);

  std::vector<long> order;
  for (const auto& [k, h] : height_of) order.push_back(k);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.below(i)]);
  for (long k : order) {
    ASSERT_TRUE(s.erase(k));
    heights.erase(heights.find(height_of[k]));
    const int tallest = heights.empty() ? 1 : *heights.rbegin();
    ASSERT_EQ(s.top_level_hint(), tallest) << "after erasing " << k;
  }
  EXPECT_EQ(s.top_level_hint(), 1);
  expect_valid(s);
}

// An erase removes every level of its tower even when the hint has fallen
// below them, as it may while a build races the hint down: with the hint
// forced to 1, the descent records only level 2, and the sweep still
// reaches levels 3-6 from their heads.
TYPED_TEST(SkipTopHint, EraseCoversItsTowerAboveTheHint) {
  using S = TypeParam;
  S s;
  for (long k = 1; k <= 9; ++k)
    ASSERT_EQ(s.insert_with_height(k, k, k == 5 ? 6 : 1),
              S::InsertStatus::kInserted);
  s.set_top_level_hint_for_testing(1);
  ASSERT_TRUE(s.erase(5));
  EXPECT_EQ(s.top_level_hint(), 1);
  expect_valid(s);  // no superfluous node left, none above the hint
  EXPECT_EQ(s.size(), 8u);
}

// validate() reports a node above the top hint, which no quiescent list
// may hold; a hint above the tallest tower is only slow, and passes.
TYPED_TEST(SkipTopHint, ValidateReportsNodeAboveTopHint) {
  using S = TypeParam;
  S s;
  ASSERT_EQ(s.insert_with_height(1, 1, 5), S::InsertStatus::kInserted);
  ASSERT_EQ(s.insert_with_height(2, 2, 3), S::InsertStatus::kInserted);
  ASSERT_EQ(s.top_level_hint(), 5);
  expect_valid(s);

  s.set_top_level_hint_for_testing(4);
  const auto rep = s.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.error, "node above the top-level hint at quiescence");

  s.set_top_level_hint_for_testing(S::kMaxTowerHeight);
  expect_valid(s);
  s.set_top_level_hint_for_testing(5);
  expect_valid(s);
}

TEST(FRSkipListWhitebox, RangeQueriesVisitExactInterval) {
  Skip s;
  for (long k = 0; k < 100; ++k) s.insert(k * 2, k);  // evens 0..198
  std::vector<long> seen;
  s.for_each_range(10, 21, [&](long k, long) { seen.push_back(k); });
  EXPECT_EQ(seen, (std::vector<long>{10, 12, 14, 16, 18, 20}));
  EXPECT_EQ(s.count_range(10, 21), 6u);
  // Half-open: hi excluded, lo included when present.
  EXPECT_EQ(s.count_range(10, 20), 5u);
  EXPECT_EQ(s.count_range(11, 20), 4u);  // lo absent
  // Degenerate and out-of-range intervals.
  EXPECT_EQ(s.count_range(10, 10), 0u);
  EXPECT_EQ(s.count_range(500, 600), 0u);
  EXPECT_EQ(s.count_range(-10, 0), 0u);
  EXPECT_EQ(s.count_range(-10, 1), 1u);  // just key 0
  EXPECT_EQ(s.count_range(0, 1000), 100u);  // everything
}

TEST(FRSkipListWhitebox, RangeSkipsDeletedKeys) {
  Skip s;
  for (long k = 0; k < 50; ++k) s.insert(k, k);
  for (long k = 10; k < 20; ++k) s.erase(k);
  EXPECT_EQ(s.count_range(5, 25), 10u);  // 5..9 and 20..24
  std::vector<long> seen;
  s.for_each_range(8, 22, [&](long k, long) { seen.push_back(k); });
  EXPECT_EQ(seen, (std::vector<long>{8, 9, 20, 21}));
}

TEST(FRSkipListWhitebox, SearchHasNoSideEffectsOnCleanList) {
  Skip s;
  for (long k = 0; k < 100; ++k) s.insert(k, k);
  const auto before = lf::stats::aggregate();
  for (long k = 0; k < 100; ++k) s.contains(k);
  const auto delta = lf::stats::aggregate() - before;
  EXPECT_EQ(delta.cas_attempt, 0u);  // nothing to help or flag
  EXPECT_EQ(delta.help_flagged, 0u);
}

// The step counters `op` moves, run on a thread of its own. FRSkipListRC's
// finger cache is per thread, so on a fresh thread it is empty: every
// closed search misses (finger_miss + 1) and descends from the head, as
// FRSkipList's always do.
template <typename Op>
lf::stats::Snapshot steps_on_fresh_thread(Op&& op) {
  lf::stats::Snapshot delta{};
  std::thread([&] {
    const auto before = lf::stats::tls().read();
    op();
    delta = lf::stats::tls().read() - before;
  }).join();
  return delta;
}

// Even keys, heights 1 + (trailing zeros of i+1), capped at 12: a
// perfectly balanced skip list, independent of the coin flips.
template <typename S>
void fill_balanced(S& s) {
  for (long i = 0; i < 2048; ++i) {
    const int h =
        std::min(1 + std::countr_zero(static_cast<unsigned long>(i + 1)), 12);
    ASSERT_EQ(s.insert_with_height(2 * i, 2 * i, h),
              S::InsertStatus::kInserted);
  }
}

// Insert_SL and Delete_SL descend once: the tower build and the erase
// cleanup resume each upper level from the node the first descent stepped
// down from there, not from a new descent from the head. On a quiescent
// list, inserting an absent key k with a height-h tower therefore costs
// exactly the descent contains(k) takes plus one insert C&S per level, and
// erasing it costs that descent plus one flag, mark and unlink per level
// and one step past each unlinked upper node: linear in h, not h·log n.
// h = 16 builds above the levels the descent recorded (the list's towers
// stop at 12), which start where a plain descent to that level would: at
// the head of that level, which holds only the new tower.
//
// FRSkipListRC counts the same. Each operation runs on a fresh thread, so
// its finger misses: contains and insert descend from the head, and erase
// always does (its cleanup must sweep above the tower). The recorded
// predecessors are counted references; their releases are no steps.
template <typename S>
void expect_updates_descend_once() {
  S s;
  fill_balanced(s);
  for (int h : {1, 2, 4, 8, 16}) {
    for (long k : {1L, 1001L, 2731L, 4095L}) {
      SCOPED_TRACE(testing::Message() << "h=" << h << " k=" << k);
      const auto search =
          steps_on_fresh_thread([&] { ASSERT_FALSE(s.contains(k)); });

      const auto insert = steps_on_fresh_thread([&] {
        ASSERT_EQ(s.insert_with_height(k, k, h), S::InsertStatus::kInserted);
      });
      const auto height = static_cast<std::uint64_t>(h);
      EXPECT_EQ(insert.insert_cas, height);
      EXPECT_EQ(insert.cas_failures(), 0u);
      EXPECT_EQ(insert.essential_steps(), search.essential_steps() + height);
      EXPECT_EQ(insert.finger_hit, 0u);

      const auto erase =
          steps_on_fresh_thread([&] { ASSERT_TRUE(s.erase(k)); });
      EXPECT_EQ(erase.flag_cas, height);
      EXPECT_EQ(erase.cas_failures(), 0u);
      EXPECT_EQ(erase.essential_steps(),
                search.essential_steps() + 4 * height - 1);
      EXPECT_EQ(erase.finger_hit + erase.finger_miss, 0u);
      expect_valid(s);
    }
  }
}

TEST(FRSkipListWhitebox, UpdatesDescendOnce) {
  expect_updates_descend_once<Skip>();
}

TEST(FRSkipListRCWhitebox, UpdatesDescendOnce) {
  using RCSkip = lf::FRSkipListRC<long, long>;
  expect_updates_descend_once<RCSkip>();
}

// Where FRSkipListRC's finger does enter an update. On one thread,
// contains(k) descends from the head and saves each level's bracket around
// k for levels 1..4 (its finger levels). insert(k) then enters at the
// level-1 bracket, so its level-1 search takes no step, and its descent
// records no level. Each upper level v therefore starts where a plain
// descent to v would: at level v's saved bracket, again without a step
// while v <= 4. A tower of height h <= 4 costs exactly its h insert C&Ss,
// with h finger hits; the erase, from the head, costs as above.
TEST(FRSkipListRCWhitebox, FingerEnteredInsertCostsItsInsertCas) {
  using RCSkip = lf::FRSkipListRC<long, long>;
  RCSkip s;
  fill_balanced(s);
  for (int h : {1, 2, 3, 4}) {
    for (long k : {1L, 1001L, 2731L, 4095L}) {
      SCOPED_TRACE(testing::Message() << "h=" << h << " k=" << k);
      lf::stats::Snapshot search{}, insert{};
      steps_on_fresh_thread([&] {
        auto before = lf::stats::tls().read();
        ASSERT_FALSE(s.contains(k));
        search = lf::stats::tls().read() - before;
        before = lf::stats::tls().read();
        ASSERT_EQ(s.insert_with_height(k, k, h),
                  RCSkip::InsertStatus::kInserted);
        insert = lf::stats::tls().read() - before;
      });
      const auto height = static_cast<std::uint64_t>(h);
      EXPECT_EQ(search.finger_miss, 1u);
      EXPECT_EQ(insert.finger_hit, height);
      EXPECT_EQ(insert.finger_miss, 0u);
      EXPECT_EQ(insert.insert_cas, height);
      EXPECT_EQ(insert.essential_steps(), height);
      const auto erase =
          steps_on_fresh_thread([&] { ASSERT_TRUE(s.erase(k)); });
      EXPECT_EQ(erase.essential_steps(),
                search.essential_steps() + 4 * height - 1);
      expect_valid(s);
    }
  }
}

// ---- searches stop at their key's tower -----------------------------------

// The steps (curr_update) a head descent toward k takes on a quiescent
// FRSkipList until it stands on level `lowest`'s last node with key < k: a
// model walk over the linked levels, from the empty level above the top
// hint down, stepping right past every key below k.
std::uint64_t model_steps(const Skip& s, long k, int lowest) {
  std::uint64_t steps = 0;
  const Skip::Node* n = s.head(s.top_level_hint() + 1);
  for (int v = s.top_level_hint() + 1;; --v) {
    for (const Skip::Node* r = n->succ.load().right;
         r != s.tail() && r->key < k; r = n->succ.load().right) {
      n = r;
      ++steps;
    }
    if (v == lowest) return steps;
    n = n->down();
  }
}

// For every height 1..12 of the balanced list, a few keys of that height:
// key 2i has height h when i + 1 is an odd multiple of 2^(h-1).
std::vector<std::pair<long, int>> keys_by_height() {
  std::vector<std::pair<long, int>> out;
  for (int h = 1; h <= 12; ++h) {
    for (long m : {0L, 1L, 5L}) {
      const long i = (2 * m + 1) * (1L << (h - 1)) - 1;
      if (i < 2048) out.emplace_back(2 * i, h);
    }
  }
  return out;
}

template <typename S>
class SkipStopAtKey : public ::testing::Test {};
TYPED_TEST_SUITE(SkipStopAtKey, SkipTypes);

// Search_SL stops where it meets its key: find(k) of a key whose tower
// has height h takes exactly the steps that reach k's level-h predecessor,
// whose successor is k's top node, and no more. On level 1 (h = 1) it
// counts its step into k, as the paper's closed search does, but loads
// nothing after it. The model walk runs over an FRSkipList built the same
// way; FRSkipListRC, on a fresh thread (finger miss), takes the same path.
TYPED_TEST(SkipStopAtKey, FindStopsAtItsKeysTower) {
  using S = TypeParam;
  S s;
  fill_balanced(s);
  Skip model;
  fill_balanced(model);
  for (const auto& [k, h] : keys_by_height()) {
    SCOPED_TRACE(testing::Message() << "k=" << k << " h=" << h);
    std::optional<long> got;
    const auto find = steps_on_fresh_thread([&] { got = s.find(k); });
    ASSERT_EQ(got, std::optional<long>(k));
    EXPECT_EQ(find.curr_update, model_steps(model, k, h) + (h == 1 ? 1 : 0));
    EXPECT_EQ(find.next_update, 0u);
    EXPECT_EQ(find.cas_attempt, 0u);
    const auto contains =
        steps_on_fresh_thread([&] { ASSERT_TRUE(s.contains(k)); });
    EXPECT_EQ(contains.essential_steps(), find.essential_steps());
  }
  expect_valid(s);
}

// A missing key meets no tower of its own, so it still walks to level 1:
// k + 1, just right of a tall tower, steps onto that tower and down all
// of it.
TYPED_TEST(SkipStopAtKey, MissingNeighbourWalksToLevelOne) {
  using S = TypeParam;
  S s;
  fill_balanced(s);
  Skip model;
  fill_balanced(model);
  for (const auto& [k, h] : keys_by_height()) {
    SCOPED_TRACE(testing::Message() << "k+1=" << k + 1 << " h=" << h);
    std::optional<long> got{-1};
    const auto miss = steps_on_fresh_thread([&] { got = s.find(k + 1); });
    EXPECT_FALSE(got.has_value());
    EXPECT_EQ(miss.essential_steps(), model_steps(model, k + 1, 1));
    EXPECT_GT(miss.essential_steps(), model_steps(model, k, h));
  }
}

// A duplicate insert stops at the existing tower like find, with no C&S
// and whatever height it drew; under counting it drops every predecessor
// it recorded above that level (validate_accounting).
TYPED_TEST(SkipStopAtKey, DuplicateInsertStopsAtTallTower) {
  using S = TypeParam;
  S s;
  fill_balanced(s);
  Skip model;
  fill_balanced(model);
  for (const auto& [k, h] : keys_by_height()) {
    if (h < 4) continue;
    for (int height : {1, 12, S::kMaxTowerHeight}) {
      SCOPED_TRACE(testing::Message() << "k=" << k << " h=" << h
                                      << " height=" << height);
      const auto dup = steps_on_fresh_thread([&] {
        ASSERT_EQ(s.insert_with_height(k, -k, height),
                  S::InsertStatus::kDuplicate);
      });
      EXPECT_EQ(dup.essential_steps(), model_steps(model, k, h));
      EXPECT_EQ(dup.cas_attempt, 0u);
      EXPECT_EQ(s.find(k), std::optional<long>(k));  // value untouched
      expect_valid(s);
    }
  }
  EXPECT_EQ(s.size(), 2048u);
  EXPECT_EQ(s.top_level_hint(), 12);
}

// The state an erase leaves right after its mark C&S, built by hand so
// that every build checks it: 5's predecessor flagged, 5's backlink set,
// its root marked, and its upper nodes (levels 2-6) still linked. 5 is no
// longer in the set, so no search may stop on those upper nodes: find and
// contains report nothing and insert links a new tower, each completing
// the deletion on its way down (validate() then finds no superfluous
// node on any level).
TEST(FRSkipListWhitebox, HandMarkedRootIsNeverAHit) {
  using View = lf::sync::SuccView<Skip::Node>;
  for (int op = 0; op < 3; ++op) {
    SCOPED_TRACE(testing::Message() << "op=" << op);
    Skip s;
    for (long k = 1; k <= 9; ++k)
      ASSERT_EQ(s.insert_with_height(k, k, k == 5 ? 6 : 1),
                Skip::InsertStatus::kInserted);
    Skip::Node* pred = s.head(1);
    while (pred->succ.load().right->key != 5) pred = pred->succ.load().right;
    Skip::Node* root = pred->succ.load().right;
    Skip::Node* next = root->succ.load().right;
    ASSERT_TRUE(pred->succ.cas(View{root, false, false},
                               View{root, false, true}) ==
                (View{root, false, false}));
    root->backlink.store(pred);
    ASSERT_TRUE(root->succ.cas(View{next, false, false},
                               View{next, true, false}) ==
                (View{next, false, false}));
    if (op == 0) EXPECT_FALSE(s.find(5).has_value());
    if (op == 1) EXPECT_FALSE(s.contains(5));
    if (op == 2) {
      EXPECT_EQ(s.insert_with_height(5, 50, 3), Skip::InsertStatus::kInserted);
      EXPECT_EQ(s.find(5), std::optional<long>(50));
    }
    expect_valid(s);
    EXPECT_EQ(s.size(), op == 2 ? 9u : 8u);
  }
}

#if LF_CHAOS
// A tower whose root is marked while its upper nodes are still linked (an
// erase parked after its mark C&S, before any unlink) is superfluous: k is
// no longer in the set, so no search may stop on its upper nodes. find
// returns nothing and insert links a new tower, each deleting the old
// tower's upper nodes on its way down (validate(), taken while the erase
// is still parked, finds none linked). Each runs on a fresh thread, so
// FRSkipListRC's finger misses and it too descends from the head.
template <typename S, typename Op>
void on_parked_tall_erase(Op&& op) {
  namespace chaos = lf::chaos;
  chaos::reset();
  {
    S s;
    for (long k = 1; k <= 9; ++k)
      ASSERT_EQ(s.insert_with_height(k, k, k == 5 ? 6 : 1),
                S::InsertStatus::kInserted);
    chaos::arm_crash(chaos::Site::kSkipHelpMarked, 1);  // after the mark
    std::thread victim([&] {
      chaos::set_thread_role(chaos::Role::kVictim);
      EXPECT_TRUE(s.erase(5));
      chaos::set_thread_role(chaos::Role::kDefault);
    });
    ASSERT_TRUE(chaos::wait_parked(std::chrono::seconds(30)));
    std::thread([&] { op(s); }).join();
    const auto rep = s.validate();  // the victim is parked, holding nothing
    EXPECT_TRUE(rep.ok) << rep.error;
    chaos::release_parked();
    victim.join();
    expect_valid(s);
  }
  chaos::reset();
}

TYPED_TEST(SkipStopAtKey, MarkedRootWithLinkedUppersIsNeverAHit) {
  using S = TypeParam;
  on_parked_tall_erase<S>([](S& s) {
    EXPECT_FALSE(s.find(5).has_value());
    EXPECT_FALSE(s.contains(5));
    EXPECT_EQ(s.size(), 8u);
  });
  on_parked_tall_erase<S>([](S& s) {
    EXPECT_EQ(s.insert_with_height(5, 50, 3), S::InsertStatus::kInserted);
    EXPECT_EQ(s.find(5), std::optional<long>(50));
  });
}
#endif

// Each tower is one block and down()/root() are derived from the slot a
// node sits in, so the offset from root() is (level-1) nodes by
// construction. What can still break is the block itself: every upper
// node's root() must be a linked level-1 root with the same key, and the
// node must lie inside the root's planned_height slots.
TEST(FlatTowerLayout, UpperNodesLiveInsideTheRootBlock) {
  Skip s;
  for (long k = 0; k < 500; ++k) s.insert(k, k);
  std::set<const Skip::Node*> roots;
  for (auto* p = s.head(1)->succ.load().right;
       p->kind != Skip::Node::Kind::kTail; p = p->succ.load().right) {
    roots.insert(p);
    // Roots come from the pool: 64-byte aligned, every time.
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
  }
  std::size_t towers_checked = 0;
  for (int v = 2; v <= Skip::kMaxTowerHeight; ++v) {
    for (auto* p = s.head(v)->succ.load().right;
         p->kind != Skip::Node::Kind::kTail; p = p->succ.load().right) {
      const auto* root = p->root();
      EXPECT_EQ(roots.count(root), 1u) << "level " << v;
      EXPECT_EQ(root->key, p->key);
      EXPECT_LE(p->level, root->planned_height);
      ++towers_checked;
    }
  }
  EXPECT_GT(towers_checked, 0u);
}

// The memory figures (one line per tower level, h lines per tower) rest on
// the node being exactly one cache line for 8-byte keys and values; a new
// field would silently add a line per level.
TEST(FlatTowerLayout, TowerNodeIsOneCacheLine) {
  using U64Node = lf::FRSkipList<std::uint64_t, std::uint64_t>::Node;
  EXPECT_EQ(sizeof(U64Node), 64u);
  EXPECT_EQ(alignof(U64Node), 8u);
  EXPECT_EQ(sizeof(Skip::Node), 64u);
  EXPECT_EQ(alignof(Skip::Node), 8u);
}

// The head tower is one block like any tower: head(v) sits at slot v-1,
// and an empty list costs two pool requests (head block and tail block),
// both freed when it is destroyed.
TEST(FlatTowerLayout, HeadTowerIsOneBlock) {
  const lf::mem::PoolTotals before = lf::mem::pool_totals();
  {
    Skip s;
    for (int v = 1; v <= Skip::kMaxTowerHeight + 1; ++v) {
      EXPECT_EQ(s.head(v), s.head(1) + (v - 1)) << "level " << v;
      EXPECT_EQ(s.head(v)->level, v);
    }
  }
  const lf::mem::PoolTotals delta = lf::mem::pool_totals() - before;
  EXPECT_EQ(delta.requests, 2u);
  EXPECT_EQ(delta.freed_blocks, 2u);
}

using lf_test::ThrowingKey;

using ThrowSkip = lf::FRSkipList<ThrowingKey, long>;

// The root's key copy throws after its block was allocated: the insert
// reports kNoMemory and the block goes back to the pool — every pool
// request of the list's lifetime is matched by a free.
TEST(FRSkipListWhitebox, RootKeyCopyFailureFreesTheBlock) {
  lf::reclaim::EpochDomain domain;
  const lf::mem::PoolTotals before = lf::mem::pool_totals();
  {
    ThrowSkip s{lf::reclaim::EpochReclaimer(domain)};
    ASSERT_TRUE(s.insert(1, 1));
    ThrowingKey::copies_until_throw = 1;  // the root's copy of the key
    EXPECT_EQ(s.insert_checked(2, 2), ThrowSkip::InsertStatus::kNoMemory);
    EXPECT_EQ(ThrowingKey::copies_until_throw, 0);  // it did throw
    EXPECT_FALSE(s.contains(2));
    EXPECT_TRUE(s.validate().ok);
    EXPECT_EQ(s.insert_checked(2, 2), ThrowSkip::InsertStatus::kInserted);
  }
  domain.drain();
  const lf::mem::PoolTotals delta = lf::mem::pool_totals() - before;
  EXPECT_EQ(delta.requests, delta.freed_blocks);
}

// An upper node's key copy throws once the root is linked: the insert
// still succeeds, with a tower truncated to the levels already built, and
// the truncated tower deletes and reclaims normally.
TEST(FRSkipListWhitebox, UpperKeyCopyFailureTruncatesTower) {
  lf::reclaim::EpochDomain domain;
  const auto before = lf::stats::aggregate();
  {
    ThrowSkip s{lf::reclaim::EpochReclaimer(domain)};
    ThrowingKey::copies_until_throw = 2;  // root copies, level 2 throws
    EXPECT_EQ(s.insert_with_height(5, 5, 3),
              ThrowSkip::InsertStatus::kInserted);
    EXPECT_EQ(ThrowingKey::copies_until_throw, 0);  // it did throw
    EXPECT_TRUE(s.contains(5));
    const auto census = s.census();
    EXPECT_EQ(census.towers, 1u);
    EXPECT_EQ(census.height_counts.at(1), 1u);
    EXPECT_EQ(census.incomplete, 1u);
    EXPECT_TRUE(s.validate().ok);
    EXPECT_TRUE(s.erase(5));
    EXPECT_TRUE(s.validate().ok);
    EXPECT_EQ(s.size(), 0u);
  }
  domain.drain();
  const auto delta = lf::stats::aggregate() - before;
  EXPECT_GE(delta.node_retired, 1u);
  EXPECT_EQ(delta.node_retired, delta.node_freed);
}

// ---- successor-key hint ------------------------------------------------------

TEST(SuccessorKeyHint, OnlySmallTriviallyCopyableKeysCarryIt) {
  struct Wide {
    long a, b;
  };
  static_assert(Skip::Node::kHinted);
  static_assert(lf::FRSkipList<std::uint64_t, std::uint64_t>::Node::kHinted);
  static_assert(lf::FRSkipList<int, int>::Node::kHinted);
  static_assert(!lf::FRSkipList<std::string, int>::Node::kHinted);
  static_assert(!ThrowSkip::Node::kHinted);  // copying may throw
  static_assert(!lf::fr::hints_successor_key<Wide>());
}

// Every insert and unlink C&S refreshes the hint of the node it changed,
// and the new node's hint is set before it is published.
TEST(SuccessorKeyHint, UpdatesKeepHintsExact) {
  Skip s;
  for (long k : {10L, 30L}) s.insert_with_height(k, k, 3);
  Skip::Node* ten = s.head(3)->succ.load().right;
  ASSERT_EQ(ten->key, 10);
  EXPECT_EQ(s.head(3)->next_key.load(), 10);
  EXPECT_EQ(ten->next_key.load(), 30);
  ASSERT_EQ(s.insert_with_height(20, 20, 3), Skip::InsertStatus::kInserted);
  EXPECT_EQ(ten->next_key.load(), 20);
  EXPECT_EQ(ten->succ.load().right->next_key.load(), 30);
  ASSERT_TRUE(s.erase(20));
  EXPECT_EQ(ten->next_key.load(), 30);
  ASSERT_TRUE(s.erase(30));
  EXPECT_EQ(ten->next_key.load(), std::numeric_limits<long>::max());  // tail
  EXPECT_TRUE(s.validate().ok);
}

// A mutation check: one wrong upper-level hint, a head's included, must
// fail validate().
TEST(SuccessorKeyHint, ValidateReportsAStaleHint) {
  Skip s;
  for (long k = 1; k <= 3; ++k) s.insert_with_height(k, k, 2);
  ASSERT_TRUE(s.validate().ok);
  Skip::Node* upper = s.head(2)->succ.load().right;
  ASSERT_EQ(upper->key, 1);
  ASSERT_EQ(upper->next_key.load(), 2);
  upper->next_key.store(3);  // would skip key 2's node
  auto rep = s.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("hint"), std::string::npos) << rep.error;
  upper->next_key.store(2);
  ASSERT_TRUE(s.validate().ok);

  s.head(2)->next_key.store(0);
  rep = s.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("hint"), std::string::npos) << rep.error;
  s.head(2)->next_key.store(1);
  EXPECT_TRUE(s.validate().ok);
}

// What an unlink that left out its refresh leaves behind: the
// predecessor still hints the removed key. validate() must catch it.
TEST(SuccessorKeyHint, ValidateCatchesAMissedUnlinkRefresh) {
  Skip s;
  for (long k = 1; k <= 3; ++k) s.insert_with_height(k, k, 3);
  Skip::Node* pred = s.head(3)->succ.load().right;
  ASSERT_EQ(pred->key, 1);
  ASSERT_EQ(pred->next_key.load(), 2);
  ASSERT_TRUE(s.erase(2));
  ASSERT_TRUE(s.validate().ok);
  pred->next_key.store(2);
  const auto rep = s.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("hint"), std::string::npos) << rep.error;
}

// Overwrites the hint of every node, heads included, on every level that
// holds a tower. (An empty level's head hint would stay wrong until a
// tower reaches that level, as no C&S changes the head's successor.)
void set_every_hint(Skip& s, long hint) {
  for (int v = 1; s.head(v)->succ.load().right != s.tail(); ++v) {
    for (Skip::Node* p = s.head(v); p != s.tail(); p = p->succ.load().right)
      p->next_key.store(hint, std::memory_order_relaxed);
  }
}

// Any hint is safe: with every hint max (each descent steps straight down
// and walks level 1) or min (no hint ever skips a load), finds, ranges
// and updates still agree with std::set, and once updates have relinked
// every node, validate() finds every hint exact again.
TEST(SuccessorKeyHint, AnyHintIsSafe) {
  constexpr long kSpan = 1500;
  for (long hint :
       {std::numeric_limits<long>::max(), std::numeric_limits<long>::min()}) {
    SCOPED_TRACE(testing::Message() << "hint=" << hint);
    Skip s;
    std::set<long> ref;
    lf::Xoshiro256 rng(11);
    for (long k = 0; k < kSpan; k += 3) {
      ASSERT_TRUE(s.insert(k, k));
      ref.insert(k);
    }
    auto steps_to_find = [&](long k) {
      const auto before = lf::stats::tls().read();
      EXPECT_TRUE(s.contains(k));
      return (lf::stats::tls().read() - before).essential_steps();
    };
    const auto exact_steps = steps_to_find(kSpan - 3);
    set_every_hint(s, hint);
    // max skips every upper level, so the last key is a level-1 walk past
    // every key; min only gives up the skipped loads, not any step.
    if (hint == std::numeric_limits<long>::max()) {
      EXPECT_GE(steps_to_find(kSpan - 3), ref.size());
    } else {
      EXPECT_EQ(steps_to_find(kSpan - 3), exact_steps);
    }

    auto check_reads = [&] {
      for (long k = -2; k < kSpan + 2; ++k) {
        const bool present = ref.count(k) == 1;
        ASSERT_EQ(s.contains(k), present) << k;
        const auto v = s.find(k);
        ASSERT_EQ(v.has_value(), present) << k;
        if (present) { ASSERT_EQ(*v, k); }
      }
      for (long lo : {-5L, 0L, 1L, kSpan / 2, kSpan - 20}) {
        std::vector<long> got;
        s.for_each_range(lo, lo + 40, [&](long k, long) { got.push_back(k); });
        const std::vector<long> want(ref.lower_bound(lo),
                                     ref.lower_bound(lo + 40));
        ASSERT_EQ(got, want) << "range from " << lo;
      }
    };
    for (int round = 0; round < 3; ++round) {
      check_reads();
      for (int i = 0; i < 500; ++i) {
        const long k = static_cast<long>(rng.below(kSpan));
        if (rng.below(2) == 0) {
          ASSERT_EQ(s.insert(k, k), ref.insert(k).second) << k;
        } else {
          ASSERT_EQ(s.erase(k), ref.erase(k) == 1) << k;
        }
      }
      set_every_hint(s, hint);  // undo the refreshes the updates made
    }
    check_reads();

    // Relink every node: each unlink and insert refreshes what it changed.
    for (long k : ref) ASSERT_TRUE(s.erase(k));
    for (long k : ref) ASSERT_TRUE(s.insert(k, k));
    const auto rep = s.validate();
    EXPECT_TRUE(rep.ok) << rep.error;
    EXPECT_EQ(s.keys(), std::vector<long>(ref.begin(), ref.end()));
  }
}

}  // namespace
