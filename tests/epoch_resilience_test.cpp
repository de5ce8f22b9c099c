// Stalled-thread resilience tests (DESIGN.md §11): epoch neutralization,
// quarantine-gated degradation, orphan adoption, and the teardown
// diagnostic. All chaos-free — every scenario parks its victim on a plain
// condition variable so the suite runs identically under Release, ASan and
// TSan configs; the chaos-armed variants live in chaos_test.cpp.
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include <gtest/gtest.h>

#include "lf/instrument/counters.h"
#include "lf/reclaim/epoch.h"
#include "lf/reclaim/hazard.h"

namespace {

using lf::reclaim::EpochDomain;

struct Tracked {
  static std::atomic<int> live;
  Tracked() { live.fetch_add(1, std::memory_order_relaxed); }
  ~Tracked() { live.fetch_sub(1, std::memory_order_relaxed); }
};
std::atomic<int> Tracked::live{0};

// A victim parked on a condvar while holding a Guard: the deterministic
// stand-in for a thread that crashed mid-pin. The ctor returns only after
// the victim is pinned; release() resumes it and join() completes the
// unwind (outermost ~Guard, i.e. the ejection-acknowledge path).
class PinnedVictim {
 public:
  explicit PinnedVictim(EpochDomain& domain) {
    thread_ = std::thread([this, &domain] {
      auto g = domain.guard();
      std::unique_lock lk(mu_);
      pinned_ = true;
      cv_.notify_all();
      cv_.wait(lk, [this] { return release_; });
    });
    std::unique_lock lk(mu_);
    cv_.wait(lk, [this] { return pinned_; });
  }

  void release() {
    std::lock_guard lk(mu_);
    release_ = true;
    cv_.notify_all();
  }

  void join() { thread_.join(); }
  std::thread::id id() const { return thread_.get_id(); }

 private:
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool pinned_ = false;
  bool release_ = false;
};

EpochDomain::ResilienceOptions fast_resilience() {
  EpochDomain::ResilienceOptions opts;
  opts.neutralize = true;
  opts.blame_threshold = 4;
  return opts;
}

TEST(EpochResilience, EjectionUnblocksEpochAndQuarantineGatesFrees) {
  const auto before = lf::stats::aggregate();
  EpochDomain domain;
  domain.set_resilience(fast_resilience());
  PinnedVictim victim(domain);

  // Garbage retired while the victim is pinned at the current epoch.
  constexpr int kNodes = 10;
  for (int i = 0; i < kNodes; ++i) domain.retire(new Tracked);
  ASSERT_EQ(Tracked::live.load(), kNodes);
  const std::uint64_t e0 = domain.epoch();

  // Without resilience the epoch could never pass the parked pin. The
  // remediation loop runs the advancer past the blame threshold: the
  // victim's slot is ejected and the epoch moves beyond its grace window.
  EXPECT_TRUE(domain.remediate_now());
  EXPECT_EQ(domain.ejected_count(), 1u);
  EXPECT_GE(domain.epoch(), e0 + 2);

  // Graceful degradation: the frees the advance enabled must NOT run —
  // the parked reader may still hold references — so they divert into the
  // bounded quarantine instead.
  domain.drain();
  EXPECT_EQ(Tracked::live.load(), kNodes);
  EXPECT_EQ(domain.quarantine_depth(), static_cast<std::uint64_t>(kNodes));
  EXPECT_EQ(domain.retired_count(), static_cast<std::uint64_t>(kNodes));

  // The victim resumes and unpins: its outermost ~Guard acknowledges the
  // ejection, which drains the quarantine — everything is freed, late but
  // never early.
  victim.release();
  victim.join();
  EXPECT_EQ(domain.ejected_count(), 0u);
  EXPECT_EQ(domain.quarantine_depth(), 0u);
  EXPECT_EQ(Tracked::live.load(), 0);

  const auto delta = lf::stats::aggregate() - before;
  EXPECT_GE(delta.epoch_eject, 1u);
  EXPECT_GE(delta.epoch_eject_ack, 1u);
  EXPECT_GE(delta.quarantine_in, static_cast<std::uint64_t>(kNodes));
  EXPECT_GE(delta.quarantine_free, static_cast<std::uint64_t>(kNodes));
}

// Nodes already on a thread's ready list when a reader is ejected may still
// be reachable by that reader if it was pinned when they were retired; the
// budgeted free checks for an outstanding ejection first and quarantines
// the whole list instead of running a deleter.
TEST(EpochResilience, EjectionQuarantinesTheReadyList) {
  EpochDomain domain;
  domain.set_resilience(fast_resilience());
  constexpr int kNodes = 10;
  for (int i = 0; i < kNodes; ++i) domain.retire(new Tracked);
  // Nobody is pinned: the advancer moves the epoch past the grace period,
  // and this thread's next pin sweeps the buckets onto its ready list and
  // frees one budget's worth.
  domain.remediate_now();
  { auto g = domain.guard(); }
  const std::uint64_t ready = kNodes - EpochDomain::kFreeBudget;
  ASSERT_EQ(domain.ready_count(), ready);
  ASSERT_EQ(Tracked::live.load(), static_cast<int>(ready));

  PinnedVictim victim(domain);
  EXPECT_TRUE(domain.remediate_now());
  ASSERT_EQ(domain.ejected_count(), 1u);
  { auto g = domain.guard(); }  // the next budgeted free
  EXPECT_EQ(domain.ready_count(), 0u);
  EXPECT_EQ(domain.quarantine_depth(), ready);
  EXPECT_EQ(Tracked::live.load(), static_cast<int>(ready));  // none freed
  EXPECT_EQ(domain.retired_count(), ready);
  EXPECT_TRUE(domain.validate_accounting());

  victim.release();
  victim.join();  // acknowledges: the quarantine drains
  EXPECT_EQ(domain.quarantine_depth(), 0u);
  EXPECT_EQ(Tracked::live.load(), 0);
  EXPECT_EQ(domain.retired_count(), 0u);
  EXPECT_TRUE(domain.validate_accounting());
}

TEST(EpochResilience, EjectedThreadPinsAgainCleanly) {
  EpochDomain domain;
  domain.set_resilience(fast_resilience());
  PinnedVictim victim(domain);
  EXPECT_TRUE(domain.remediate_now());
  EXPECT_EQ(domain.ejected_count(), 1u);
  victim.release();
  victim.join();
  EXPECT_EQ(domain.ejected_count(), 0u);

  // A fresh thread (same pattern) works untainted afterwards, and the
  // domain keeps advancing.
  PinnedVictim second(domain);
  const std::uint64_t e0 = domain.epoch();
  second.release();
  second.join();
  for (int i = 0; i < 4; ++i) domain.drain();
  EXPECT_GT(domain.epoch(), e0);
}

TEST(EpochResilience, QuarantineDrainsOnlyAfterLastEjectionSettles) {
  EpochDomain domain;
  domain.set_resilience(fast_resilience());
  PinnedVictim first(domain);
  PinnedVictim second(domain);

  constexpr int kNodes = 8;
  for (int i = 0; i < kNodes; ++i) domain.retire(new Tracked);

  // The blame detector ejects one frozen slot at a time; two remediation
  // rounds neutralize both victims.
  domain.remediate_now();
  domain.remediate_now();
  ASSERT_EQ(domain.ejected_count(), 2u);
  domain.drain();
  ASSERT_EQ(domain.quarantine_depth(), static_cast<std::uint64_t>(kNodes));

  // One acknowledgement is not enough: the other ejected reader may still
  // resume and dereference.
  first.release();
  first.join();
  EXPECT_EQ(domain.ejected_count(), 1u);
  EXPECT_EQ(Tracked::live.load(), kNodes);
  EXPECT_EQ(domain.quarantine_depth(), static_cast<std::uint64_t>(kNodes));

  second.release();
  second.join();
  EXPECT_EQ(domain.ejected_count(), 0u);
  EXPECT_EQ(domain.quarantine_depth(), 0u);
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(EpochResilience, AdoptStalledMovesLimboToOrphans) {
  const auto before = lf::stats::aggregate();
  EpochDomain domain;

  // The victim retires into its own limbo, then parks OUTSIDE any guard —
  // the resumable-victim adoption contract. Fewer than kAdvanceEvery
  // retires, so nothing self-reclaims before the park.
  constexpr int kNodes = 12;
  std::mutex mu;
  std::condition_variable cv;
  bool parked = false, release = false;
  std::thread victim([&] {
    for (int i = 0; i < kNodes; ++i) domain.retire(new Tracked);
    std::unique_lock lk(mu);
    parked = true;
    cv.notify_all();
    cv.wait(lk, [&] { return release; });
  });
  {
    std::unique_lock lk(mu);
    cv.wait(lk, [&] { return parked; });
  }
  ASSERT_EQ(Tracked::live.load(), kNodes);

  // Unknown threads are not found; the parked victim is.
  EXPECT_FALSE(domain.adopt_stalled(std::this_thread::get_id()));
  EXPECT_TRUE(domain.adopt_stalled(victim.get_id()));

  // The adopted limbo sits in the domain orphans and frees through the
  // normal grace machinery — no victim participation needed.
  domain.drain();
  domain.drain();
  EXPECT_EQ(Tracked::live.load(), 0);
  EXPECT_EQ(domain.retired_count(), 0u);

  {
    std::lock_guard lk(mu);
    release = true;
    cv.notify_all();
  }
  victim.join();

  const auto delta = lf::stats::aggregate() - before;
  EXPECT_GE(delta.orphan_adopt, static_cast<std::uint64_t>(kNodes));
}

TEST(EpochResilience, AdoptStalledSettlesEjectedPinnedVictim) {
  EpochDomain domain;
  domain.set_resilience(fast_resilience());
  PinnedVictim victim(domain);
  constexpr int kNodes = 6;
  for (int i = 0; i < kNodes; ++i) domain.retire(new Tracked);
  domain.remediate_now();
  ASSERT_EQ(domain.ejected_count(), 1u);
  domain.drain();
  ASSERT_EQ(domain.quarantine_depth(), static_cast<std::uint64_t>(kNodes));

  // Declaring the parked victim dead settles its ejection and drains the
  // quarantine without its cooperation. NOTE: this is only legal because
  // the victim is parked outside any traversal — it pinned and then
  // immediately blocked, holding no node references (the adoption
  // contract; a victim parked mid-traversal must instead resume and
  // acknowledge on its own, as in the tests above).
  EXPECT_TRUE(domain.adopt_stalled(victim.id()));
  EXPECT_EQ(domain.ejected_count(), 0u);
  EXPECT_EQ(domain.quarantine_depth(), 0u);
  EXPECT_EQ(Tracked::live.load(), 0);

  victim.release();
  victim.join();  // unwinds over the already-cleared slot: benign
}

TEST(EpochResilience, StallReportNamesTheStragglerAndGauges) {
  EpochDomain domain;
  domain.set_resilience(fast_resilience());
  PinnedVictim victim(domain);
  for (int i = 0; i < 5; ++i) domain.retire(new Tracked);

  std::string report = domain.stall_report();
  EXPECT_NE(report.find("epoch domain:"), std::string::npos);
  EXPECT_NE(report.find("active=1"), std::string::npos);
  EXPECT_NE(report.find("retired_backlog=5"), std::string::npos);
  EXPECT_NE(report.find("neutralize=on"), std::string::npos);

  domain.remediate_now();
  report = domain.stall_report();
  EXPECT_NE(report.find("ejected=1"), std::string::npos);

  victim.release();
  victim.join();
  domain.drain();
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(EpochResilience, HazardAdoptStalledScavengesRetiredKeepsMichaelSlots) {
  const auto before = lf::stats::aggregate();
  lf::reclaim::HazardDomain hazard;

  constexpr int kNodes = 5;
  std::mutex mu;
  std::condition_variable cv;
  bool parked = false, release = false;
  auto* p = new Tracked;
  std::thread victim([&] {
    // Protect p in a Michael-list slot, retire it and kNodes more nodes,
    // then park: the stand-in for a thread stalled mid-traversal.
    hazard.slots().set(0, p);
    hazard.retire(p);
    for (int i = 0; i < kNodes; ++i) hazard.retire(new Tracked);
    std::unique_lock lk(mu);
    parked = true;
    cv.notify_all();
    cv.wait(lk, [&] { return release; });
    lk.unlock();
    hazard.slots().clear(0);  // resumed: done with p
  });
  {
    std::unique_lock lk(mu);
    cv.wait(lk, [&] { return parked; });
  }
  ASSERT_EQ(Tracked::live.load(), kNodes + 1);

  EXPECT_FALSE(hazard.adopt_stalled(std::this_thread::get_id()));
  EXPECT_TRUE(hazard.adopt_stalled(victim.get_id()));

  // The victim's retired list was orphaned, so one scan from a survivor
  // frees it, except p: the victim's slots stay published, since it may
  // dereference them on resume (hazard.h's bounded retention).
  hazard.scan();
  EXPECT_EQ(Tracked::live.load(), 1);
  EXPECT_EQ(hazard.retired_count(), 1u);

  {
    std::lock_guard lk(mu);
    release = true;
    cv.notify_all();
  }
  victim.join();
  hazard.scan();
  EXPECT_EQ(Tracked::live.load(), 0);
  EXPECT_EQ(hazard.retired_count(), 0u);

  const auto delta = lf::stats::aggregate() - before;
  EXPECT_GE(delta.orphan_adopt, static_cast<std::uint64_t>(kNodes + 1));
}

TEST(EpochResilience, TeardownWhileParkedPinnedAbandonsSlot) {
  const std::uint64_t before = EpochDomain::abandoned_slots();
  std::mutex mu;
  std::condition_variable cv;
  bool pinned = false, release = false;
  auto* domain = new EpochDomain;
  std::thread victim([&] {
    auto g = domain->guard();
    std::unique_lock lk(mu);
    pinned = true;
    cv.notify_all();
    cv.wait(lk, [&] { return release; });
  });
  {
    std::unique_lock lk(mu);
    cv.wait(lk, [&] { return pinned; });
  }

  // Destroying the domain under a live pin violates the "domain outlives
  // every thread" contract; the destructor must diagnose it (counted,
  // non-fatal) and abandon the slot instead of freeing memory the parked
  // thread's unpin will still write to.
  delete domain;
  EXPECT_EQ(EpochDomain::abandoned_slots(), before + 1);

  // The victim's unwind after the domain is gone touches only the
  // abandoned (immortal) slot: no use-after-free under ASan.
  {
    std::lock_guard lk(mu);
    release = true;
    cv.notify_all();
  }
  victim.join();
}

}  // namespace
