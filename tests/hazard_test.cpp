// Unit and stress tests for the hazard-pointer domain: the raw protect /
// scan machinery, the audited protect() helper, the retained-finger slot
// protocol (publish / reacquire / invalidate / chain-protecting scan), and
// the layered epoch→hazard HazardReclaimer.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "lf/reclaim/epoch.h"
#include "lf/reclaim/hazard.h"

namespace {

using lf::reclaim::EpochDomain;
using lf::reclaim::HazardDomain;
using lf::reclaim::HazardReclaimer;

struct Tracked {
  static std::atomic<int> live;
  Tracked() { live.fetch_add(1); }
  ~Tracked() { live.fetch_sub(1); }
};
std::atomic<int> Tracked::live{0};

TEST(HazardDomain, UnprotectedRetireIsFreedByScan) {
  HazardDomain domain;
  domain.retire(new Tracked);
  EXPECT_EQ(domain.retired_count(), 1u);
  domain.scan();
  EXPECT_EQ(Tracked::live.load(), 0);
  EXPECT_EQ(domain.retired_count(), 0u);
}

TEST(HazardDomain, ProtectedNodeSurvivesScan) {
  HazardDomain domain;
  auto* obj = new Tracked;
  auto& slots = domain.slots();
  slots.set(0, obj);
  domain.retire(obj);
  domain.scan();
  EXPECT_EQ(Tracked::live.load(), 1);  // still protected
  slots.clear(0);
  domain.scan();
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(HazardDomain, ClearAllReleasesEverySlot) {
  HazardDomain domain;
  auto& slots = domain.slots();
  std::vector<Tracked*> objs;
  for (int i = 0; i < HazardDomain::kSlotsPerThread; ++i) {
    objs.push_back(new Tracked);
    slots.set(i, objs.back());
    domain.retire(objs.back());
  }
  domain.scan();
  EXPECT_EQ(Tracked::live.load(), HazardDomain::kSlotsPerThread);
  slots.clear_all();
  domain.scan();
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(HazardDomain, CrossThreadProtectionIsRespected) {
  HazardDomain domain;
  auto* obj = new Tracked;
  std::atomic<bool> protected_flag{false}, release{false};
  std::thread holder([&] {
    domain.slots().set(0, obj);
    protected_flag.store(true);
    while (!release.load()) std::this_thread::yield();
    domain.slots().clear(0);
  });
  while (!protected_flag.load()) std::this_thread::yield();
  domain.retire(obj);
  domain.scan();  // holder's slot must save the object
  EXPECT_EQ(Tracked::live.load(), 1);
  release.store(true);
  holder.join();
  domain.scan();
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(HazardDomain, ThresholdTriggersAutomaticScan) {
  HazardDomain domain;
  // Far more retirements than any threshold: most must get freed without an
  // explicit scan() call.
  for (int i = 0; i < 4096; ++i) domain.retire(new Tracked);
  EXPECT_LT(domain.retired_count(), 4096u);
  domain.scan();
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(HazardDomain, ExitedThreadsGarbageIsAdopted) {
  HazardDomain domain;
  std::thread worker([&] {
    for (int i = 0; i < 10; ++i) domain.retire(new Tracked);
  });
  worker.join();
  domain.scan();  // adopts the orphaned retire list
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(HazardDomain, DestructorFreesOutstanding) {
  {
    HazardDomain domain;
    for (int i = 0; i < 10; ++i) domain.retire(new Tracked);
  }
  EXPECT_EQ(Tracked::live.load(), 0);
}

// ---- protect(): the single audited publish-then-revalidate helper --------

TEST(HazardDomain, ProtectPublishesAndRevalidates) {
  HazardDomain domain;
  auto* obj = new Tracked;
  std::atomic<Tracked*> src{obj};
  auto& slots = domain.slots();
  // Source unchanged: protect succeeds and the published slot shields the
  // object from a scan.
  ASSERT_TRUE(slots.protect(0, obj, [&] { return src.load(); }));
  domain.retire(obj);
  domain.scan();
  EXPECT_EQ(Tracked::live.load(), 1);
  // Source redirected after the publication: protect must report failure
  // (the caller's signal to discard the pointer and retry), even though the
  // slot write itself happened.
  auto* other = new Tracked;
  src.store(other);
  EXPECT_FALSE(slots.protect(1, obj, [&] { return src.load(); }));
  slots.clear_all();
  domain.retire(other);
  domain.scan();
  EXPECT_EQ(Tracked::live.load(), 0);
}

// ---- Retained-finger slot protocol ---------------------------------------

TEST(HazardDomain, RetainedFingerBlocksReclamationUntilInvalidated) {
  HazardDomain domain;
  auto* obj = new Tracked;
  constexpr std::uint64_t kTag = 7001;
  void* entries[1] = {obj};
  domain.publish_finger(
      entries, 1, +[](void*) -> void* { return nullptr; }, kTag);
  EXPECT_TRUE(domain.reacquire_finger(obj, kTag));
  EXPECT_FALSE(domain.reacquire_finger(obj, kTag + 1));  // wrong tag
  domain.retire(obj);
  domain.scan();
  EXPECT_EQ(Tracked::live.load(), 1);  // the retained slot spares it
  domain.invalidate_fingers(kTag);
  EXPECT_FALSE(domain.reacquire_finger(obj, kTag));  // fails closed
  domain.scan();
  EXPECT_EQ(Tracked::live.load(), 0);
}

// The multi-entry shape the list's way set uses: one retained slot per
// cache way, each re-acquired independently by (pointer, tag, index).
TEST(HazardDomain, MultiEntryFingerPublishProtectsEveryEntry) {
  auto null_walker = +[](void*) -> void* { return nullptr; };
  HazardDomain domain;
  Tracked* objs[3] = {new Tracked, new Tracked, new Tracked};
  void* entries[3] = {objs[0], objs[1], objs[2]};
  domain.publish_finger(entries, 3, null_walker, 11);
  EXPECT_TRUE(domain.reacquire_finger(objs[0], 11, 0));
  EXPECT_TRUE(domain.reacquire_finger(objs[2], 11, 2));
  EXPECT_FALSE(domain.reacquire_finger(objs[2], 11, 1));  // wrong index
  for (Tracked* o : objs) domain.retire(o);
  domain.scan();
  EXPECT_EQ(Tracked::live.load(), 3);  // every entry's slot spares its node
  // A narrower republish nulls the entries beyond its count: only entry 0
  // stays protected.
  void* one[1] = {objs[0]};
  domain.publish_finger(one, 1, null_walker, 11);
  EXPECT_FALSE(domain.reacquire_finger(objs[1], 11, 1));
  domain.scan();
  EXPECT_EQ(Tracked::live.load(), 1);
  // invalidate_fingers sweeps ALL matching entries, not just entry 0.
  domain.publish_finger(one, 1, null_walker, 11);
  domain.invalidate_fingers(11);
  EXPECT_FALSE(domain.reacquire_finger(objs[0], 11, 0));
  domain.scan();
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(HazardDomain, RepublishEvictsPreviousFinger) {
  HazardDomain domain;
  auto* first = new Tracked;
  auto* second = new Tracked;
  void* first_entry[1] = {first};
  void* second_entry[1] = {second};
  domain.publish_finger(
      first_entry, 1, +[](void*) -> void* { return nullptr; }, 1);
  domain.publish_finger(
      second_entry, 1, +[](void*) -> void* { return nullptr; }, 2);
  // One retained slot per (thread, domain): the second publish evicted the
  // first, whose re-acquisition must now fail closed.
  EXPECT_FALSE(domain.reacquire_finger(first, 1));
  EXPECT_TRUE(domain.reacquire_finger(second, 2));
  domain.retire(first);
  domain.scan();
  EXPECT_EQ(Tracked::live.load(), 1);  // only `second` survives
  domain.invalidate_fingers(2);
  domain.retire(second);
  domain.scan();
  EXPECT_EQ(Tracked::live.load(), 0);
}

// A published finger protects its whole backlink chain: scan() walks the
// registered ChainWalker and spares every node it yields — exactly the
// nodes the owning thread's recovery walk could dereference.
TEST(HazardDomain, ChainWalkProtectsWholeBacklinkChain) {
  struct ChainNode {
    std::atomic<bool> marked{false};
    std::atomic<ChainNode*> back{nullptr};
    Tracked tracked;
  };
  auto walker = +[](void* p) -> void* {
    auto* n = static_cast<ChainNode*>(p);
    if (!n->marked.load()) return nullptr;
    return n->back.load();
  };
  HazardDomain domain;
  auto* n2 = new ChainNode;  // chain end: unmarked, hence alive regardless
  auto* n1 = new ChainNode;
  n1->marked.store(true);
  n1->back.store(n2);
  auto* n0 = new ChainNode;  // the published finger, itself marked
  n0->marked.store(true);
  n0->back.store(n1);
  void* entries[1] = {n0};
  domain.publish_finger(entries, 1, walker, 42);
  domain.retire(n1);
  domain.retire(n2);
  domain.scan();
  EXPECT_EQ(Tracked::live.load(), 3);  // n1, n2 spared by the chain walk
  // The chain dissolves (as after a successful recovery republishes an
  // unmarked finger): nothing past the finger is protected any more.
  n0->marked.store(false);
  domain.scan();
  EXPECT_EQ(Tracked::live.load(), 1);  // n1, n2 freed; n0 never retired
  domain.invalidate_fingers(42);
  delete n0;
  EXPECT_EQ(Tracked::live.load(), 0);
}

// ---- HazardReclaimer: the layered epoch→hazard policy ---------------------

// Declaration order matters in these tests: the HazardDomain must outlive
// the EpochDomain, because draining the epoch stage runs Handoff::pass,
// which files the payload into the hazard domain.

TEST(HazardReclaimerTest, TwoStageRetireNeedsGraceAndScan) {
  HazardDomain hdom;
  EpochDomain edom;
  HazardReclaimer rec(edom, hdom);
  rec.retire(new Tracked);
  // Stage 1: still parked in the epoch domain — a hazard scan alone cannot
  // reach it.
  hdom.scan();
  EXPECT_EQ(Tracked::live.load(), 1);
  edom.drain();  // grace over: handed to the hazard domain's retired list
  EXPECT_EQ(hdom.retired_count(), 1u);
  hdom.scan();
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(HazardReclaimerTest, FingerHooksRouteToTheDomain) {
  HazardDomain hdom;
  EpochDomain edom;
  HazardReclaimer rec(edom, hdom);
  auto* obj = new Tracked;
  void* entries[1] = {obj};
  rec.finger_publish(
      entries, 1, +[](void*) -> void* { return nullptr; }, 9);
  EXPECT_TRUE(rec.finger_reacquire(obj, 9));
  rec.retire(obj);
  edom.drain();
  hdom.scan();
  EXPECT_EQ(Tracked::live.load(), 1);  // retained slot spans both stages
  rec.finger_invalidate(9);
  EXPECT_FALSE(rec.finger_reacquire(obj, 9));
  hdom.scan();
  EXPECT_EQ(Tracked::live.load(), 0);
}

// Stress: the canonical protect-validate-read loop against a concurrently
// swapped-and-retired shared pointer.
TEST(HazardDomainStress, ProtectValidateNeverReadsFreed) {
  struct Boxed {
    std::atomic<std::uint64_t> canary{0x1234567890abcdefULL};
    ~Boxed() { canary.store(0); }
  };

  HazardDomain domain;
  std::atomic<Boxed*> shared{new Boxed};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      auto& slots = domain.slots();
      while (!stop.load(std::memory_order_acquire)) {
        Boxed* p;
        do {  // the audited publish-then-revalidate helper
          p = shared.load(std::memory_order_acquire);
        } while (!slots.protect(
            0, p, [&] { return shared.load(std::memory_order_acquire); }));
        ASSERT_EQ(p->canary.load(std::memory_order_relaxed),
                  0x1234567890abcdefULL);
        reads.fetch_add(1, std::memory_order_relaxed);
        slots.clear(0);
      }
    });
  }

  std::thread writer([&] {
    // Keep swapping until the readers have also made progress: on a loaded
    // host the writer could otherwise finish before any reader runs, and
    // the test would race nothing. The cap keeps a failed reader (which
    // stops reading) from turning into a hang.
    for (int i = 0;
         i < 3000 ||
         (reads.load(std::memory_order_relaxed) < 1000 && i < 2'000'000);
         ++i) {
      auto* fresh = new Boxed;
      Boxed* old = shared.exchange(fresh, std::memory_order_acq_rel);
      domain.retire(old);
    }
    stop.store(true, std::memory_order_release);
  });

  writer.join();
  for (auto& r : readers) r.join();
  domain.retire(shared.load());
  domain.scan();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(Tracked::live.load(), 0);
}

}  // namespace
