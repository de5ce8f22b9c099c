// Schedule fuzzing: concurrent churn with seeded yield injection.
//
// On a single-core host, threads are preempted only at timeslice
// boundaries, so most tests exercise few interleavings. Injecting yields
// at operation boundaries (and the OS moving threads at those points)
// multiplies the schedules covered — crucially including switches in the
// middle of multi-C&S sequences left half-done, which is exactly where
// the paper's helping machinery must take over. Every structure must hold
// its invariants and exact-count semantics under any such schedule.
//
// Yields are routed through chaos::YieldInjector: deterministic per seed
// in every build, and in a -DLF_CHAOS=ON build each boundary additionally
// registers as a kOpBoundary injection point, so the PCT scheduler (when
// a test arms it) perturbs these workloads too.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <thread>
#include <vector>

#include "lf/chaos/chaos.h"
#include "lf/core/fr_list.h"
#include "lf/core/fr_list_noflag.h"
#include "lf/core/fr_list_rc.h"
#include "lf/core/fr_skiplist.h"
#include "lf/core/fr_skiplist_rc.h"
#include "lf/util/random.h"

namespace {

constexpr int kThreads = 4;

// Churn with yield injection; accumulates into `net` the net number of
// keys that should remain (tracked exactly via per-op results).
template <typename Set>
void fuzz_churn(Set& set, std::uint64_t seed, int ops_per_thread,
                std::uint64_t key_space, std::atomic<long>& net) {
  std::barrier start(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      lf::Xoshiro256 rng(seed + static_cast<std::uint64_t>(t) * 131);
      lf::chaos::YieldInjector fuzz(seed * 977 +
                                    static_cast<std::uint64_t>(t));
      long local_net = 0;
      start.arrive_and_wait();
      for (int i = 0; i < ops_per_thread; ++i) {
        fuzz.op_boundary();
        const long k = static_cast<long>(rng.below(key_space));
        switch (rng.below(3)) {
          case 0:
            if (set.insert(k, k)) ++local_net;
            break;
          case 1:
            if (set.erase(k)) --local_net;
            break;
          default:
            set.contains(k);
        }
        fuzz.op_boundary();
      }
      net.fetch_add(local_net);
    });
  }
  for (auto& w : workers) w.join();
}

TEST(ScheduleFuzz, FRListExactCountsUnderYields) {
  for (std::uint64_t seed : {11u, 222u, 3333u}) {
    lf::FRList<long, long> list;
    std::atomic<long> net{0};
    fuzz_churn(list, seed, 8000, 64, net);
    // Exact-count semantics: successful inserts minus successful erases
    // must equal the final size — every win was real, every loss was real.
    EXPECT_EQ(list.size(), static_cast<std::size_t>(net.load()))
        << "seed " << seed;
    const auto rep = list.validate();
    EXPECT_TRUE(rep.ok) << "seed " << seed << ": " << rep.error;
  }
}

TEST(ScheduleFuzz, FRListNoFlagExactCountsUnderYields) {
  for (std::uint64_t seed : {77u, 888u}) {
    lf::FRListNoFlag<long, long> list;
    std::atomic<long> net{0};
    fuzz_churn(list, seed, 8000, 64, net);
    EXPECT_EQ(list.size(), static_cast<std::size_t>(net.load()))
        << "seed " << seed;
  }
}

TEST(ScheduleFuzz, FRListRCExactCountsAndAccountingUnderYields) {
  for (std::uint64_t seed : {99u, 1010u}) {
    lf::FRListRC<long, long> list;
    std::atomic<long> net{0};
    fuzz_churn(list, seed, 6000, 64, net);
    EXPECT_EQ(list.size(), static_cast<std::size_t>(net.load()))
        << "seed " << seed;
    EXPECT_TRUE(list.validate_counts()) << "seed " << seed;
    EXPECT_EQ(list.arena_count(), list.free_count() + list.size() + 2)
        << "seed " << seed;
    EXPECT_TRUE(list.validate_accounting()) << "seed " << seed;
    const auto rep = list.validate();
    EXPECT_TRUE(rep.ok) << "seed " << seed << ": " << rep.error;
  }
}

TEST(ScheduleFuzz, FRSkipListRCExactCountsAndAccountingUnderYields) {
  for (std::uint64_t seed : {1212u, 2323u}) {
    lf::FRSkipListRC<long, long> s;
    std::atomic<long> net{0};
    fuzz_churn(s, seed, 5000, 64, net);
    EXPECT_EQ(s.size(), static_cast<std::size_t>(net.load()))
        << "seed " << seed;
    // Arena accounting: every node ever allocated is free, linked, or a
    // sentinel — no leak and no double-free under any schedule.
    EXPECT_TRUE(s.validate_accounting()) << "seed " << seed;
    const auto rep = s.validate();
    EXPECT_TRUE(rep.ok) << "seed " << seed << ": " << rep.error;
  }
}

// Flat pooled towers recycle blocks through the epoch grace period while
// the yields stretch every race window: counts stay exact and the
// structure validates.
TEST(SkipListLayoutFuzz, ExactCountsUnderYields) {
  for (std::uint64_t seed : {44u, 555u, 6666u}) {
    lf::FRSkipList<long, long> s;
    std::atomic<long> net{0};
    fuzz_churn(s, seed, 6000, 64, net);
    EXPECT_EQ(s.size(), static_cast<std::size_t>(net.load()))
        << "seed " << seed;
    const auto rep = s.validate();
    EXPECT_TRUE(rep.ok) << "seed " << seed << ": " << rep.error;
  }
}

// The finger-free structure holds the same exact-count guarantees under
// yields, and the finger counters stay at zero: FRSkipList has no finger.
// (FRList, FRListRC and FRSkipListRC always carry their finger.)
TEST(ScheduleFuzz, FingerOffVariantsExactCountsUnderYields) {
  const auto before = lf::stats::aggregate();
  {
    lf::FRSkipList<long, long> s;
    std::atomic<long> net{0};
    fuzz_churn(s, 505, 5000, 64, net);
    EXPECT_EQ(s.size(), static_cast<std::size_t>(net.load()));
    EXPECT_TRUE(s.validate().ok);
  }
  const auto delta = lf::stats::aggregate() - before;
  EXPECT_EQ(delta.finger_hit, 0u);
  EXPECT_EQ(delta.finger_miss, 0u);
  EXPECT_EQ(delta.finger_skip, 0u);
}

// Hot-key churn is where fingers are live on almost every operation AND
// constantly invalidated by erases of the fingered nodes themselves: the
// validate / backlink-recover / head-fallback paths all run under yield
// perturbation. Exact counts must survive regardless. The finger-free
// FRSkipList runs the same churn from the head as a control.
TEST(ScheduleFuzz, FingerHotKeyChurnAllStructures) {
  const auto before = lf::stats::aggregate();
  {
    lf::FRList<long, long> list;
    std::atomic<long> net{0};
    fuzz_churn(list, 808, 8000, 8, net);
    EXPECT_EQ(list.size(), static_cast<std::size_t>(net.load()));
    EXPECT_TRUE(list.validate().ok);
  }
  {
    lf::FRSkipList<long, long> s;
    std::atomic<long> net{0};
    fuzz_churn(s, 909, 6000, 8, net);
    EXPECT_EQ(s.size(), static_cast<std::size_t>(net.load()));
    EXPECT_TRUE(s.validate().ok);
  }
  {
    lf::FRListRC<long, long> list;
    std::atomic<long> net{0};
    fuzz_churn(list, 1111, 5000, 8, net);
    EXPECT_EQ(list.size(), static_cast<std::size_t>(net.load()));
    EXPECT_TRUE(list.validate_counts());
  }
  {
    lf::FRSkipListRC<long, long> s;
    std::atomic<long> net{0};
    fuzz_churn(s, 1212, 4000, 8, net);
    EXPECT_EQ(s.size(), static_cast<std::size_t>(net.load()));
    EXPECT_TRUE(s.validate_accounting());
  }
  const auto delta = lf::stats::aggregate() - before;
  // With 8 hot keys and thousands of ops per thread, fingers must be doing
  // real work: hits dominate overall, and misses (first op per thread per
  // structure, erased fingers) exist too.
  EXPECT_GT(delta.finger_hit, delta.finger_miss);
  EXPECT_GT(delta.finger_miss, 0u);
}

TEST(ScheduleFuzz, HotTwoKeyDuel) {
  // The tightest possible conflict: four threads fight over TWO adjacent
  // keys with constant insert/erase, maximizing flag/mark/backlink
  // interactions on the same pair of nodes.
  lf::FRList<long, long> list;
  std::atomic<long> net{0};
  fuzz_churn(list, 31337, 12000, 2, net);
  EXPECT_EQ(list.size(), static_cast<std::size_t>(net.load()));
  EXPECT_TRUE(list.validate().ok);
}

TEST(ScheduleFuzz, HotTwoKeyDuelSkipList) {
  lf::FRSkipList<long, long> s;
  std::atomic<long> net{0};
  fuzz_churn(s, 31338, 9000, 2, net);
  EXPECT_EQ(s.size(), static_cast<std::size_t>(net.load()));
  EXPECT_TRUE(s.validate().ok);
}

}  // namespace
