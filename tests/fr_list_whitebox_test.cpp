// White-box tests: the succ-field codec, the three-step deletion protocol,
// backlink recovery, and the step-counter instrumentation — the parts of
// the paper's design that the black-box API cannot observe.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <type_traits>

#include "lf/core/fr_list.h"
#include "lf/instrument/counters.h"
#include "lf/reclaim/leaky.h"
#include "lf/sync/succ_field.h"

namespace {

using LeakyList =
    lf::FRList<long, long, std::less<long>, lf::reclaim::LeakyReclaimer>;
using Node = LeakyList::Node;
using View = lf::sync::SuccView<Node>;

// ---- succ-field codec ---------------------------------------------------

TEST(SuccField, PackUnpackRoundTrip) {
  alignas(8) Node node(Node::Kind::kInterior, 1, 1);
  for (bool mark : {false, true}) {
    for (bool flag : {false, true}) {
      if (mark && flag) continue;  // INV5: cannot coexist
      const View v{&node, mark, flag};
      EXPECT_EQ(lf::sync::SuccField<Node>::unpack(
                    lf::sync::SuccField<Node>::pack(v)),
                v);
    }
  }
  // Null pointer round-trips too (tail's succ).
  const View null_v{nullptr, false, false};
  EXPECT_EQ(lf::sync::SuccField<Node>::unpack(
                lf::sync::SuccField<Node>::pack(null_v)),
            null_v);
}

TEST(SuccField, CasReturnsWitnessedValueOnFailure) {
  alignas(8) Node a(Node::Kind::kInterior, 1, 1);
  alignas(8) Node b(Node::Kind::kInterior, 2, 2);
  lf::sync::SuccField<Node> field(View{&a, false, false});
  // Wrong expectation: must fail and report the actual content.
  const View witnessed =
      field.cas(View{&b, false, false}, View{&b, true, false});
  EXPECT_EQ(witnessed, (View{&a, false, false}));
  EXPECT_EQ(field.load(), (View{&a, false, false}));
  // Right expectation: succeeds and returns the old value.
  const View old = field.cas(View{&a, false, false}, View{&b, false, true});
  EXPECT_EQ(old, (View{&a, false, false}));
  EXPECT_EQ(field.load(), (View{&b, false, true}));
}

TEST(SuccField, CasAttemptsAreCounted) {
  alignas(8) Node a(Node::Kind::kInterior, 1, 1);
  lf::sync::SuccField<Node> field(View{&a, false, false});
  const auto before = lf::stats::tls().read();
  field.cas(View{&a, false, false}, View{&a, true, false});   // success
  field.cas(View{&a, false, false}, View{&a, false, false});  // fails: marked
  const auto after = lf::stats::tls().read();
  EXPECT_EQ(after.cas_attempt - before.cas_attempt, 2u);
  EXPECT_EQ(after.cas_success - before.cas_success, 1u);
}

TEST(SuccField, MarkAndFlagBitsAreIndependentOfPointer) {
  EXPECT_EQ(lf::sync::SuccField<Node>::kMarkBit, 1u);
  EXPECT_EQ(lf::sync::SuccField<Node>::kFlagBit, 2u);
  static_assert(alignof(Node) >= 4, "two low bits must be free");
}

// ---- three-step deletion protocol ---------------------------------------

// With a leaky reclaimer, deleted nodes stay readable, so the protocol's
// after-effects (mark bit, backlink) are inspectable.
TEST(FRListWhitebox, DeletionMarksNodeAndSetsBacklink) {
  LeakyList list;
  list.insert(1, 1);
  list.insert(2, 2);
  list.insert(3, 3);

  // Hold direct pointers before deletion.
  Node* n1 = list.head()->succ.load().right;
  Node* n2 = n1->succ.load().right;
  ASSERT_EQ(n2->key, 2);

  ASSERT_TRUE(list.erase(2));

  // Paper Figure 2 outcome: n2 marked, n2.backlink == its predecessor n1,
  // n1 unflagged again, n1 now links past n2.
  EXPECT_TRUE(n2->succ.load().mark);
  EXPECT_FALSE(n2->succ.load().flag);
  EXPECT_EQ(n2->backlink.load(), n1);
  EXPECT_FALSE(n1->succ.load().flag);
  EXPECT_FALSE(n1->succ.load().mark);
  EXPECT_EQ(n1->succ.load().right->key, 3);
}

TEST(FRListWhitebox, MarkedSuccessorFieldIsFrozen) {
  LeakyList list;
  list.insert(1, 1);
  list.insert(2, 2);
  Node* n2 = list.head()->succ.load().right->succ.load().right;
  ASSERT_EQ(n2->key, 2);
  ASSERT_TRUE(list.erase(2));
  const View frozen = n2->succ.load();
  ASSERT_TRUE(frozen.mark);
  // No C&S can touch a marked field: all further inserts/erases around the
  // position must leave it byte-identical.
  list.insert(2, 22);
  list.erase(1);
  list.insert(0, 0);
  EXPECT_EQ(n2->succ.load(), frozen);
}

TEST(FRListWhitebox, DeletionCountsOneFlagOneMarkOneUnlink) {
  LeakyList list;
  for (long k = 0; k < 8; ++k) list.insert(k, k);
  const auto before = lf::stats::aggregate();
  ASSERT_TRUE(list.erase(4));
  const auto delta = lf::stats::aggregate() - before;
  EXPECT_EQ(delta.flag_cas, 1u);
  EXPECT_EQ(delta.mark_cas, 1u);
  EXPECT_EQ(delta.pdelete_cas, 1u);
  // Uncontended: at most the paper's three successful C&S per deletion.
  EXPECT_EQ(delta.cas_success, 3u);
}

TEST(FRListWhitebox, InsertCountsOneCas) {
  LeakyList list;
  for (long k = 0; k < 8; ++k) list.insert(k, k);
  const auto before = lf::stats::aggregate();
  ASSERT_TRUE(list.insert(100, 100));
  const auto delta = lf::stats::aggregate() - before;
  EXPECT_EQ(delta.insert_cas, 1u);
  EXPECT_EQ(delta.cas_success, 1u);
  EXPECT_EQ(delta.cas_failures(), 0u);
}

// Stores node's successor word with both tag bits set. pack() asserts INV5,
// so store_unsynchronized cannot write it in a Debug build; SuccField is
// standard-layout with the atomic word as its only data member, so the two
// are pointer-interconvertible and the word can be written directly.
void store_marked_and_flagged(Node* node) {
  using Field = lf::sync::SuccField<Node>;
  static_assert(std::is_standard_layout_v<Field>);
  auto& word = *reinterpret_cast<std::atomic<std::uintptr_t>*>(&node->succ);
  word.store(reinterpret_cast<std::uintptr_t>(node->succ.load().right) |
             Field::kMarkBit | Field::kFlagBit);
}

TEST(FRListWhitebox, ValidateReportsInv5) {
  LeakyList list;
  for (long k = 1; k <= 3; ++k) list.insert(k, k);
  Node* n2 = list.head()->succ.load().right->succ.load().right;
  ASSERT_EQ(n2->key, 2);
  const View saved = n2->succ.load();
  store_marked_and_flagged(n2);
  const auto rep = list.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("INV5"), std::string::npos) << rep.error;
  n2->succ.store_unsynchronized(saved);
  EXPECT_TRUE(list.validate().ok);
}

// ---- backlink recovery (the paper's key mechanism) ----------------------

TEST(FRListWhitebox, InsertRecoversThroughBacklinkAfterPredecessorDeleted) {
  LeakyList list;
  for (long k = 1; k <= 5; ++k) list.insert(k, k);

  // Phase 1: locate an insertion position for 6 (prev = node 5).
  LeakyList::InsertCursor cur;
  ASSERT_TRUE(list.insert_locate(6, 60, cur));
  ASSERT_EQ(cur.prev->key, 5);

  // Adversary: delete node 5 between locate and C&S.
  ASSERT_TRUE(list.erase(5));

  // Phase 2: the C&S fails on the marked node; recovery must walk the
  // backlink (NOT restart from head) and then complete.
  const auto before = lf::stats::aggregate();
  ASSERT_TRUE(list.insert_complete(cur));
  const auto delta = lf::stats::aggregate() - before;
  EXPECT_GE(delta.backlink_traversal, 1u);
  EXPECT_GE(delta.cas_failures(), 1u);
  // Recovery is local: the re-search must not re-traverse nodes 1..4.
  EXPECT_LE(delta.curr_update, 2u);
  EXPECT_TRUE(list.contains(6));
  EXPECT_TRUE(list.validate().ok);
}

TEST(FRListWhitebox, TryOnceReportsRetryAfterInterference) {
  LeakyList list;
  for (long k = 1; k <= 3; ++k) list.insert(k, k);
  LeakyList::InsertCursor cur;
  ASSERT_TRUE(list.insert_locate(9, 90, cur));
  ASSERT_TRUE(list.erase(3));  // kill the located predecessor
  // One iteration: C&S fails, recovery repositions, no insertion yet.
  EXPECT_EQ(list.insert_try_once(cur), LeakyList::TryResult::kRetry);
  EXPECT_FALSE(list.contains(9));
  EXPECT_EQ(cur.prev->key, 2);  // recovered to the live predecessor
  // Second iteration: clean C&S.
  EXPECT_EQ(list.insert_try_once(cur), LeakyList::TryResult::kInserted);
  EXPECT_TRUE(list.contains(9));
}

TEST(FRListWhitebox, TryOnceDetectsDuplicateAppearingDuringRetry) {
  LeakyList list;
  list.insert(1, 1);
  LeakyList::InsertCursor cur;
  ASSERT_TRUE(list.insert_locate(5, 50, cur));
  list.insert(5, 555);  // someone else inserts the same key first
  EXPECT_EQ(list.insert_try_once(cur), LeakyList::TryResult::kDuplicate);
  EXPECT_EQ(*list.find(5), 555);
}

TEST(FRListWhitebox, ChainHistogramRecordsRecoveries) {
  lf::stats::reset_chain_hist();
  LeakyList list;
  for (long k = 1; k <= 4; ++k) list.insert(k, k);
  LeakyList::InsertCursor cur;
  ASSERT_TRUE(list.insert_locate(10, 100, cur));
  ASSERT_TRUE(list.erase(4));
  ASSERT_TRUE(list.insert_complete(cur));
  const auto hist = lf::stats::aggregate_chain_hist();
  EXPECT_GE(hist.count(), 1u);
  EXPECT_GE(hist.max(), 1u);
}

TEST(FRListWhitebox, SearchHelpsCompletePhysicalDeletion) {
  // After erase() returns the node is already physically deleted; verify a
  // subsequent search performs NO helping (nothing marked remains linked).
  LeakyList list;
  for (long k = 0; k < 10; ++k) list.insert(k, k);
  list.erase(5);
  const auto before = lf::stats::aggregate();
  EXPECT_FALSE(list.contains(5));
  const auto delta = lf::stats::aggregate() - before;
  EXPECT_EQ(delta.help_marked, 0u);
  EXPECT_EQ(delta.cas_attempt, 0u);
}

TEST(FRListWhitebox, RetireGoesThroughReclaimer) {
  LeakyList list;  // leaky reclaimer still counts retirements
  for (long k = 0; k < 10; ++k) list.insert(k, k);
  const auto before = lf::stats::aggregate();
  for (long k = 0; k < 10; ++k) list.erase(k);
  const auto delta = lf::stats::aggregate() - before;
  EXPECT_EQ(delta.node_retired, 10u);
}

}  // namespace
