// Unit and stress tests for the hazard-pointer domain: the raw protect /
// scan machinery and the audited protect() helper.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "lf/reclaim/hazard.h"

namespace {

using lf::reclaim::HazardDomain;

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
