// Unit and stress tests for epoch-based reclamation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <thread>
#include <vector>

#include "lf/core/fr_skiplist.h"
#include "lf/reclaim/epoch.h"

namespace {

using lf::reclaim::EpochDomain;

struct Tracked {
  static std::atomic<int> live;
  Tracked() { live.fetch_add(1); }
  ~Tracked() { live.fetch_sub(1); }
};
std::atomic<int> Tracked::live{0};

TEST(EpochDomain, RetireThenDrainFrees) {
  EpochDomain domain;
  auto* obj = new Tracked;
  EXPECT_EQ(Tracked::live.load(), 1);
  domain.retire(obj);
  EXPECT_EQ(domain.retired_count(), 1u);
  domain.drain();
  EXPECT_TRUE(domain.validate_accounting());
  EXPECT_EQ(Tracked::live.load(), 0);
  EXPECT_EQ(domain.retired_count(), 0u);
}

TEST(EpochDomain, ManyRetirementsAllFreed) {
  EpochDomain domain;
  for (int i = 0; i < 1000; ++i) domain.retire(new Tracked);
  domain.drain();
  EXPECT_TRUE(domain.validate_accounting());
  EXPECT_EQ(Tracked::live.load(), 0);
  EXPECT_EQ(domain.retired_count(), 0u);
}

TEST(EpochDomain, PinnedReaderBlocksReclamation) {
  EpochDomain domain;
  std::barrier sync(2);
  std::atomic<bool> release{false};

  std::thread reader([&] {
    auto guard = domain.guard();
    sync.arrive_and_wait();  // pinned; let main retire
    while (!release.load()) std::this_thread::yield();
  });

  sync.arrive_and_wait();
  auto* obj = new Tracked;
  domain.retire(obj);
  // The reader's pin predates the retirement epoch reaching +2, so draining
  // now must NOT free the object.
  domain.drain();
  EXPECT_TRUE(domain.validate_accounting());
  EXPECT_EQ(Tracked::live.load(), 1);
  EXPECT_EQ(domain.retired_count(), 1u);

  release.store(true);
  reader.join();
  domain.drain();
  EXPECT_TRUE(domain.validate_accounting());
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(EpochDomain, ReentrantGuards) {
  EpochDomain domain;
  {
    auto g1 = domain.guard();
    {
      auto g2 = domain.guard();
      auto g3 = domain.guard();
    }
    // Still pinned by g1: retirement cannot complete.
    domain.retire(new Tracked);
  }
  domain.drain();
  EXPECT_TRUE(domain.validate_accounting());
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(EpochDomain, ExitedThreadsGarbageIsAdopted) {
  EpochDomain domain;
  std::thread worker([&] {
    for (int i = 0; i < 100; ++i) domain.retire(new Tracked);
  });
  worker.join();
  // The worker's limbo lists were orphaned to the domain at thread exit;
  // drain (from this thread) must adopt and free them.
  domain.drain();
  EXPECT_TRUE(domain.validate_accounting());
  EXPECT_EQ(Tracked::live.load(), 0);
  EXPECT_EQ(domain.retired_count(), 0u);
}

TEST(EpochDomain, EpochAdvancesUnderUse) {
  EpochDomain domain;
  const auto start = domain.epoch();
  for (int i = 0; i < 500; ++i) domain.retire(new Tracked);
  domain.drain();
  EXPECT_TRUE(domain.validate_accounting());
  EXPECT_GT(domain.epoch(), start);
}

TEST(EpochDomain, DestructorFreesEverythingOutstanding) {
  {
    EpochDomain domain;
    for (int i = 0; i < 64; ++i) domain.retire(new Tracked);
    // No drain: the destructor must free the remainder.
  }
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(EpochDomain, IndependentDomains) {
  EpochDomain a, b;
  auto ga = a.guard();  // pinning a must not block b
  b.retire(new Tracked);
  b.drain();
  EXPECT_TRUE(b.validate_accounting());
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(EpochDomain, GlobalDomainUsable) {
  auto& g = EpochDomain::global();
  g.retire(new Tracked);
  g.drain();
  EXPECT_TRUE(g.validate_accounting());
  EXPECT_EQ(Tracked::live.load(), 0);
}

// Counts are kept per slot and folded into the shared count at thread
// exit. Threads that run one after another reuse one record, so each must
// start from the count its predecessor folded away, not add to it.
TEST(EpochDomain, CountsStayExactAcrossExitAndRecordReuse) {
  EpochDomain domain;
  std::uint64_t retired = 0;
  for (int round = 0; round < 4; ++round) {
    std::thread worker([&] {
      for (int i = 0; i < 100; ++i) domain.retire(new Tracked);
    });
    worker.join();
    retired += 100;
    const std::uint64_t live = static_cast<std::uint64_t>(Tracked::live.load());
    EXPECT_EQ(domain.retired_count(), live) << "round " << round;
    EXPECT_LE(live, retired);
    EXPECT_TRUE(domain.validate_accounting()) << "round " << round;
  }
  domain.drain();
  EXPECT_EQ(domain.retired_count(), 0u);
  EXPECT_EQ(Tracked::live.load(), 0);
  EXPECT_TRUE(domain.validate_accounting());
}

// A thread that erases 10k towers while no other thread is pinned keeps
// its ready list under the documented bound: the budgeted free drains
// each swept bucket before the next sweep.
TEST(EpochDomain, SoloEraserKeepsReadyListBounded) {
  EpochDomain domain;
  {
    lf::FRSkipList<long, long> s{lf::reclaim::EpochReclaimer(domain)};
    constexpr long kKeys = 10000;
    for (long k = 0; k < kKeys; ++k) ASSERT_TRUE(s.insert(k, k));
    std::uint64_t max_ready = 0;
    for (long k = 0; k < kKeys; ++k) {
      ASSERT_TRUE(s.erase(k));
      max_ready = std::max(max_ready, domain.ready_count());
    }
    EXPECT_GT(max_ready, 0u);  // the budgeted free did run
    EXPECT_LE(max_ready, EpochDomain::kSoloReadyBound);
    // What is not freed yet sits in three limbo buckets and the ready list,
    // at most one epoch's worth of retirements each, not the whole run.
    EXPECT_LE(domain.retired_count(), 4 * EpochDomain::kAdvanceEvery);
    EXPECT_TRUE(domain.validate_accounting());
  }
  domain.drain();
  EXPECT_EQ(domain.retired_count(), 0u);
  EXPECT_TRUE(domain.validate_accounting());
}

// Stress: writers continuously allocate/publish/unlink/retire while readers
// traverse under guards. Readers must never observe a destroyed object.
TEST(EpochDomainStress, ReadersNeverSeeFreedMemory) {
  struct Boxed {
    std::atomic<std::uint64_t> canary{0xfeedfacecafebeefULL};
    ~Boxed() { canary.store(0xdeaddeaddeaddeadULL); }
  };

  constexpr int kReaders = 3;
  EpochDomain domain;
  std::atomic<Boxed*> shared{new Boxed};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<int> readers_started{0};  // readers done with one read

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      bool first = true;
      while (!stop.load(std::memory_order_acquire)) {
        auto guard = domain.guard();
        Boxed* p = shared.load(std::memory_order_acquire);
        ASSERT_EQ(p->canary.load(std::memory_order_relaxed),
                  0xfeedfacecafebeefULL);
        reads.fetch_add(1, std::memory_order_relaxed);
        if (first) readers_started.fetch_add(1, std::memory_order_release);
        first = false;
      }
    });
  }

  std::thread writer([&] {
    // Swap only once every reader is reading: on a loaded host the writer
    // could otherwise finish all its swaps before any reader has run.
    while (readers_started.load(std::memory_order_acquire) < kReaders)
      std::this_thread::yield();
    for (int i = 0; i < 3000; ++i) {
      auto* fresh = new Boxed;
      Boxed* old = shared.exchange(fresh, std::memory_order_acq_rel);
      domain.retire(old);
    }
    stop.store(true, std::memory_order_release);
  });

  writer.join();
  for (auto& r : readers) r.join();
  domain.retire(shared.load());
  domain.drain();
  EXPECT_TRUE(domain.validate_accounting());
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(domain.retired_count(), 0u);
}

}  // namespace
