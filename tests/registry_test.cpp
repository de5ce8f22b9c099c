// Tests for the per-thread record registry and retire list shared by both
// reclamation domains (lf/reclaim/registry.h), on the module directly and
// through EpochDomain and HazardDomain.
#include <atomic>
#include <barrier>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "lf/reclaim/epoch.h"
#include "lf/reclaim/hazard.h"
#include "lf/reclaim/registry.h"

namespace {

using lf::reclaim::EpochDomain;
using lf::reclaim::HazardDomain;
using lf::reclaim::detail::RecordRegistry;
using lf::reclaim::detail::RetiredList;

struct Tracked {
  static std::atomic<int> live;
  Tracked() { live.fetch_add(1); }
  ~Tracked() { live.fetch_sub(1); }
};
std::atomic<int> Tracked::live{0};

void delete_tracked(void* p) { delete static_cast<Tracked*>(p); }

// ---- RetiredList ----------------------------------------------------------

TEST(RetiredList, SpliceMovesEverythingAndFreeAllCounts) {
  RetiredList a, b;
  for (int i = 0; i < 3; ++i) a.push(new Tracked, delete_tracked);
  for (int i = 0; i < 4; ++i) b.push(new Tracked, delete_tracked);
  a.splice(b);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(a.size(), 7u);
  // The kept tail still works: a second splice appends behind the first.
  b.push(new Tracked, delete_tracked);
  a.splice(b);
  EXPECT_EQ(a.size(), 8u);
  // Splicing into an empty list, and an empty list into a full one.
  RetiredList c;
  c.splice(a);
  c.splice(a);
  EXPECT_EQ(c.size(), 8u);
  EXPECT_EQ(Tracked::live.load(), 8);
  EXPECT_EQ(c.free_all(), 8u);
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(RetiredList, FreeUnlessKeepsWhatItIsToldToKeep) {
  RetiredList list;
  std::vector<Tracked*> objs;
  for (int i = 0; i < 6; ++i) {
    objs.push_back(new Tracked);
    list.push(objs.back(), delete_tracked);
  }
  const Tracked* keep1 = objs[1];
  const Tracked* keep4 = objs[4];
  const std::uint64_t freed = list.free_unless(
      [&](void* p) { return p == keep1 || p == keep4; });
  EXPECT_EQ(freed, 4u);
  EXPECT_EQ(list.size(), 2u);
  EXPECT_EQ(Tracked::live.load(), 2);
  // The rebuilt list keeps a valid tail: splicing onto it loses nothing.
  RetiredList more;
  more.push(new Tracked, delete_tracked);
  list.splice(more);
  EXPECT_EQ(list.size(), 3u);
  EXPECT_EQ(list.free_all(), 3u);
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(RetiredList, DestructorFreesWhatIsLeft) {
  {
    RetiredList list;
    for (int i = 0; i < 5; ++i) list.push(new Tracked, delete_tracked);
  }
  EXPECT_EQ(Tracked::live.load(), 0);
}

// ---- RecordRegistry on its own ------------------------------------------

struct TestRecord {
  int exits = 0;  // written under the registry mutex
};

struct TestOwner {
  int created = 0;
  TestRecord* new_record() {
    ++created;
    return new TestRecord;
  }
  void on_thread_exit(TestRecord& rec) { ++rec.exits; }
};

using TestRegistry = RecordRegistry<TestOwner, TestRecord>;

TEST(RecordRegistry, SequentialThreadsShareOneRecord) {
  constexpr int kThreads = 8;
  TestOwner owner;
  TestRegistry registry(owner);
  std::vector<TestRecord*> seen;
  for (int i = 0; i < kThreads; ++i) {
    std::thread t([&] {
      TestRecord& rec = registry.local();
      EXPECT_EQ(&registry.local(), &rec);  // the lookup finds it again
      seen.push_back(&rec);
    });
    t.join();
  }
  std::lock_guard lock(registry.mutex());
  ASSERT_EQ(registry.slots().size(), 1u);
  EXPECT_EQ(owner.created, 1);
  EXPECT_FALSE(registry.slots()[0].in_use());
  TestRecord* rec = registry.slots()[0].record;
  EXPECT_EQ(rec->exits, kThreads);
  for (TestRecord* r : seen) EXPECT_EQ(r, rec);
}

// Destroyed after a thread's ThreadRecords when touched before it, so its
// destructor sees the lookup cache as the thread's exit leaves it.
struct CacheProbe {
  lf::reclaim::detail::LastRecord* seen = nullptr;
  ~CacheProbe() {
    if (seen != nullptr) *seen = lf::reclaim::detail::last_record;
  }
};
thread_local CacheProbe cache_probe;

TEST(RecordRegistry, LookupCacheIsEmptiedAtThreadExit) {
  TestOwner owner;
  TestRegistry registry(owner);
  lf::reclaim::detail::LastRecord during{0, nullptr}, after{1, &owner};
  TestRecord* rec = nullptr;
  std::thread t([&] {
    cache_probe.seen = &after;  // constructed before ThreadRecords
    rec = &registry.local();
    during = lf::reclaim::detail::last_record;
    EXPECT_EQ(&registry.local(), rec);  // served from the cache
  });
  t.join();
  EXPECT_EQ(during.domain_id, registry.id());
  EXPECT_EQ(during.record, rec);
  // ~ThreadRecords handed the record back, so it may be reused by another
  // thread: the cache must not keep pointing at it.
  EXPECT_EQ(after.domain_id, 0u);
  EXPECT_EQ(after.record, nullptr);
  std::lock_guard lock(registry.mutex());
  EXPECT_FALSE(registry.slots()[0].in_use());
}

TEST(RecordRegistry, ConcurrentThreadsGetDistinctRecords) {
  constexpr int kThreads = 4;
  TestOwner owner;
  TestRegistry registry(owner);
  std::barrier all_registered(kThreads);
  std::vector<TestRecord*> seen(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      seen[i] = &registry.local();
      all_registered.arrive_and_wait();
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i)
    for (int j = i + 1; j < kThreads; ++j) EXPECT_NE(seen[i], seen[j]);
  std::lock_guard lock(registry.mutex());
  EXPECT_EQ(registry.slots().size(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(owner.created, kThreads);
}

TEST(RecordRegistry, FindOwnerMatchesOnlyAnInUseRecord) {
  TestOwner owner;
  TestRegistry registry(owner);
  std::mutex mu;
  std::condition_variable cv;
  bool registered = false, release = false;
  TestRecord* rec = nullptr;
  std::thread t([&] {
    TestRecord& r = registry.local();
    std::unique_lock lk(mu);
    rec = &r;
    registered = true;
    cv.notify_all();
    cv.wait(lk, [&] { return release; });
  });
  const std::thread::id tid = t.get_id();
  {
    std::unique_lock lk(mu);
    cv.wait(lk, [&] { return registered; });
  }
  {
    std::lock_guard lock(registry.mutex());
    EXPECT_EQ(registry.find_owner(tid), rec);
    EXPECT_EQ(registry.find_owner(std::this_thread::get_id()), nullptr);
  }
  {
    std::lock_guard lk(mu);
    release = true;
    cv.notify_all();
  }
  t.join();
  std::lock_guard lock(registry.mutex());
  ASSERT_EQ(registry.slots().size(), 1u);
  EXPECT_FALSE(registry.slots()[0].in_use());
  // The record is idle now: neither its last owner's id nor the "no
  // thread" id that idle slots carry may match it.
  EXPECT_EQ(registry.find_owner(tid), nullptr);
  EXPECT_EQ(registry.find_owner(std::thread::id{}), nullptr);
}

TEST(RecordRegistry, ThreadExitingAfterTheRegistryKeepsItsRecord) {
  TestOwner owner;
  auto registry = std::make_unique<TestRegistry>(owner);
  std::mutex mu;
  std::condition_variable cv;
  bool registered = false, release = false;
  std::thread t([&] {
    registry->local();
    std::unique_lock lk(mu);
    registered = true;
    cv.notify_all();
    cv.wait(lk, [&] { return release; });
  });
  {
    std::unique_lock lk(mu);
    cv.wait(lk, [&] { return registered; });
  }
  registry.reset();  // the record is freed with the registry...
  {
    std::lock_guard lk(mu);
    release = true;
    cv.notify_all();
  }
  t.join();  // ...and the exiting thread skips it: ASan checks the skip
  EXPECT_EQ(owner.created, 1);
}

// ---- Both domains --------------------------------------------------------

template <typename Domain>
class DomainRegistryTest : public ::testing::Test {};

using Domains = ::testing::Types<EpochDomain, HazardDomain>;
TYPED_TEST_SUITE(DomainRegistryTest, Domains);

// A worker retires into a private domain, which is destroyed while the
// worker still runs; the worker exits afterwards. The destructor frees
// the worker's retired objects, and the exit must not touch the dead
// domain (heap-use-after-free under ASan otherwise).
TYPED_TEST(DomainRegistryTest, WorkerExitsAfterDomainIsDestroyed) {
  auto domain = std::make_unique<TypeParam>();
  std::mutex mu;
  std::condition_variable cv;
  bool retired = false, release = false;
  std::thread worker([&] {
    for (int i = 0; i < 10; ++i) domain->retire(new Tracked);
    std::unique_lock lk(mu);
    retired = true;
    cv.notify_all();
    cv.wait(lk, [&] { return release; });
  });
  {
    std::unique_lock lk(mu);
    cv.wait(lk, [&] { return retired; });
  }
  domain.reset();
  EXPECT_EQ(Tracked::live.load(), 0);
  {
    std::lock_guard lk(mu);
    release = true;
    cv.notify_all();
  }
  worker.join();
}

// Workers exit while their domain is being destroyed: a thread exit that
// found the domain alive finishes handing its record back before the
// destructor proceeds.
TYPED_TEST(DomainRegistryTest, WorkersExitWhileDomainIsDestroyed) {
  constexpr int kWorkers = 4;
  for (int round = 0; round < 20; ++round) {
    auto domain = std::make_unique<TypeParam>();
    std::barrier retired(kWorkers + 1);
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&] {
        for (int i = 0; i < 3; ++i) domain->retire(new Tracked);
        retired.arrive_and_wait();  // then exit at once
      });
    }
    retired.arrive_and_wait();
    domain.reset();
    for (auto& t : workers) t.join();
    EXPECT_EQ(Tracked::live.load(), 0);
  }
}

TYPED_TEST(DomainRegistryTest, AdoptStalledMatchesOnlyAnInUseRecord) {
  TypeParam domain;
  std::thread worker([&] { domain.retire(new Tracked); });
  const std::thread::id tid = worker.get_id();
  worker.join();
  // The worker's record went idle at its exit: adopting by its old id, or
  // by the "no thread" id, finds nothing.
  EXPECT_FALSE(domain.adopt_stalled(tid));
  EXPECT_FALSE(domain.adopt_stalled(std::thread::id{}));
  // The calling thread holds a record once it has used the domain.
  domain.retire(new Tracked);
  EXPECT_TRUE(domain.adopt_stalled(std::this_thread::get_id()));
}

}  // namespace
