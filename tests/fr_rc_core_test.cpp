// The counted core (lf/core/fr_rc_core.h) on its own, with a stand-in node
// and no list: the free-bit/stamp protocol of finger_try_hold, the release
// cascade, and node reuse through the free list. FRListRC and FRSkipListRC
// are both built on this core; their own tests cover the FR steps.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "lf/core/fr_rc_core.h"

namespace {

using lf::rc::kFreeBit;

// A stand-in node owning one extra counted link, so the cascade also runs
// through the per-node hook.
struct StandInNode : lf::rc::NodeBase<StandInNode, long, long> {
  StandInNode* extra = nullptr;

  template <typename Fn>
  void for_each_extra_link(Fn&& fn) const {
    fn(extra);
  }
};

// No search and no levels: only the core's arena and counting steps are
// used, and those never call back into the structure.
struct Harness : lf::rc::Core<Harness, StandInNode, long, long,
                              std::less<long>, lf::fr::kListSites> {};

using Kind = StandInNode::Kind;
using View = Harness::View;

std::uint64_t count_word(const StandInNode* n) {
  return n->refct.load(std::memory_order_relaxed);
}

TEST(RCCore, FingerHoldRejectsFreelistedNodeAndStaysBalanced) {
  Harness h;
  StandInNode* n = h.allocate(Kind::kInterior, 5, 50);
  const std::uint64_t stamp = n->stamp.load();
  h.release(n);  // creator reference: 1 -> 0, recycled
  ASSERT_EQ(h.free_count(), 1u);
  ASSERT_EQ(count_word(n), kFreeBit);
  EXPECT_FALSE(h.finger_try_hold(n, stamp));
  EXPECT_FALSE(h.finger_try_hold(n, stamp + 1));  // the stamp cannot help
  EXPECT_EQ(count_word(n), kFreeBit);  // the undo re-balanced the count
  EXPECT_EQ(h.free_count(), 1u);       // and recycled nothing twice
}

TEST(RCCore, FingerHoldRejectsReincarnatedNodeAndStaysBalanced) {
  Harness h;
  StandInNode* n = h.allocate(Kind::kInterior, 5, 50);
  const std::uint64_t old_stamp = n->stamp.load();
  h.release(n);
  StandInNode* again = h.allocate(Kind::kInterior, 7, 70);
  ASSERT_EQ(again, n);
  EXPECT_FALSE(h.finger_try_hold(n, old_stamp));  // a later incarnation
  EXPECT_EQ(count_word(n), 1u);                   // only the creator's
  ASSERT_TRUE(h.finger_try_hold(n, n->stamp.load()));
  EXPECT_EQ(count_word(n), 2u);
  h.release(n);
  EXPECT_EQ(count_word(n), 1u);
  h.release(n);
  EXPECT_EQ(count_word(n), kFreeBit);
  EXPECT_EQ(h.free_count(), 1u);
}

// Releasing the head of a chain of dying nodes recycles every one of them,
// through succ, backlink and the node's own extra link alike. The chain is
// far longer than any recursion could take.
TEST(RCCore, ReleasingChainHeadRecyclesWholeChain) {
  constexpr int kChain = 100000;
  Harness h;
  std::vector<StandInNode*> nodes;
  for (int i = 0; i < kChain; ++i)
    nodes.push_back(h.allocate(Kind::kInterior, i, i));
  // Each node's creator reference becomes the count of its one incoming
  // link; node 0 keeps its creator reference. The link kind rotates.
  for (int i = 0; i + 1 < kChain; ++i) {
    StandInNode* next = nodes[i + 1];
    switch (i % 3) {
      case 0: nodes[i]->succ.store_unsynchronized(View{next, false, false});
              break;
      case 1: nodes[i]->backlink.store(next); break;
      default: nodes[i]->extra = next;
    }
  }
  h.release(nodes[0]);
  EXPECT_EQ(h.free_count(), static_cast<std::size_t>(kChain));
  EXPECT_EQ(h.arena_count(), static_cast<std::size_t>(kChain));
  for (const StandInNode* n : nodes) ASSERT_EQ(count_word(n), kFreeBit);
}

// A still-referenced link stops the cascade there.
TEST(RCCore, CascadeStopsAtSharedNode) {
  Harness h;
  StandInNode* a = h.allocate(Kind::kInterior, 1, 1);
  StandInNode* b = h.allocate(Kind::kInterior, 2, 2);
  a->succ.store_unsynchronized(View{b, false, false});  // b's creator ref
  h.acquire(b);                                         // a thread's ref
  h.release(a);
  EXPECT_EQ(h.free_count(), 1u);
  EXPECT_EQ(count_word(b), 1u);
  h.release(b);
  EXPECT_EQ(h.free_count(), 2u);
}

TEST(RCCore, AllocateAfterRecycleReusesNodeWithBumpedStamp) {
  Harness h;
  StandInNode* n = h.allocate(Kind::kInterior, 5, 50);
  StandInNode* target = h.allocate(Kind::kInterior, 6, 60);
  n->succ.store_unsynchronized(View{target, false, false});
  h.acquire(target);  // n's link
  const std::uint64_t stamp = n->stamp.load();
  h.release(n);
  ASSERT_EQ(h.free_count(), 1u);
  StandInNode* again = h.allocate(Kind::kInterior, 9, 90);
  EXPECT_EQ(again, n);
  EXPECT_EQ(h.arena_count(), 2u);  // no new node from the OS
  EXPECT_EQ(h.free_count(), 0u);
  EXPECT_EQ(again->stamp.load(), stamp + 1);
  EXPECT_EQ(count_word(again), 1u);  // creator reference, free bit clear
  EXPECT_EQ(again->key, 9);
  EXPECT_EQ(again->value, 90);
  EXPECT_EQ(again->succ.load().right, nullptr);
  EXPECT_EQ(again->backlink.load(), nullptr);
  EXPECT_EQ(count_word(target), 1u);  // n's link was released on death
  h.release(again);
  h.release(target);
}

}  // namespace
