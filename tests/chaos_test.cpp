// Fault-injection suite (built only with -DLF_CHAOS=ON).
//
// Three families of tests:
//
//   * DETERMINISTIC HELPING — forced CAS failures at named sites make the
//     flag-helping, mark-helping and backlink-recovery paths run on
//     demand, asserted through the paper's step counters instead of
//     hoping a racy schedule produces them.
//
//   * CRASH MATRIX — for every injection site in FRList and FRSkipList,
//     and in their counted variants FRListRC and FRSkipListRC, park a
//     victim thread at that site mid-operation and verify the
//     empirical lock-freedom claim: the surviving threads complete their
//     whole workload, the structure stays coherent while the victim is
//     parked, and after the victim is released exact-count semantics and
//     all invariants hold.
//
//   * ALLOCATION FAILURE — a pool allocation (list node, tower block, or
//     fresh segment) that throws must surface as a clean error with
//     nothing half-linked and nothing leaked. (A tower's upper levels live
//     in its block and allocate nothing; their failure path is covered by
//     FRSkipListWhitebox.UpperKeyCopyFailureTruncatesTower.)
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <initializer_list>
#include <latch>
#include <new>
#include <thread>
#include <vector>

#include "lf/chaos/chaos.h"
#include "lf/core/fr_list.h"
#include "lf/core/fr_list_rc.h"
#include "lf/core/fr_skiplist.h"
#include "lf/core/fr_skiplist_rc.h"
#include "lf/harness/watchdog.h"
#include "lf/instrument/counters.h"
#include "lf/mem/pool.h"
#include "lf/reclaim/epoch.h"
#include "lf/reclaim/leaky.h"
#include "lf/util/random.h"

static_assert(lf::chaos::kCompiledIn,
              "chaos_test requires a -DLF_CHAOS=ON build");

namespace {

namespace chaos = lf::chaos;
using namespace std::chrono_literals;
using Site = chaos::Site;

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { chaos::reset(); }
  void TearDown() override { chaos::reset(); }
};

// ---- Deterministic helping: FRList --------------------------------------

TEST_F(ChaosTest, ListForcedInsertCasRetriesUntilDisarmed) {
  lf::FRList<long, long> list;
  chaos::arm_cas_failures(Site::kListInsertCas, 3);
  const auto before = lf::stats::aggregate();
  EXPECT_TRUE(list.insert(7, 7));
  const auto delta = lf::stats::aggregate() - before;
  EXPECT_EQ(chaos::forced_cas_failures(Site::kListInsertCas), 3u);
  // 3 forced failures + the real one that lands.
  EXPECT_EQ(chaos::site_hits(Site::kListInsertCas), 4u);
  EXPECT_EQ(delta.insert_cas, 1u);  // exactly one successful insertion C&S
  EXPECT_TRUE(list.contains(7));
  EXPECT_TRUE(list.validate().ok);
}

TEST_F(ChaosTest, ListForcedUnlinkRunsMarkHelpingViaSearch) {
  // Force the deleter's own unlink C&S to fail: the erase still succeeds
  // (marking is the linearization point) but leaves the node marked with
  // its predecessor flagged. The next search must run HelpMarked — the
  // mark-helping path — and physically delete it.
  lf::FRList<long, long> list;
  for (long k : {1, 2, 3}) ASSERT_TRUE(list.insert(k, k));
  chaos::arm_cas_failures(Site::kListUnlinkCas, 1);
  const auto before = lf::stats::aggregate();
  EXPECT_TRUE(list.erase(2));
  auto delta = lf::stats::aggregate() - before;
  EXPECT_EQ(delta.pdelete_cas, 0u);  // physical deletion was forced to fail
  EXPECT_EQ(chaos::forced_cas_failures(Site::kListUnlinkCas), 1u);
  // The key is logically gone even though the node is still linked.
  EXPECT_FALSE(list.contains(2));
  // That contains() ran into the marked node and helped: physical deletion
  // completed by the mark-helping path, not by the deleter.
  delta = lf::stats::aggregate() - before;
  EXPECT_GE(delta.help_marked, 1u);
  EXPECT_EQ(delta.pdelete_cas, 1u);
  EXPECT_GE(chaos::site_hits(Site::kListHelpMarked), 1u);
  EXPECT_TRUE(list.validate().ok);
  EXPECT_EQ(list.size(), 2u);
}

TEST_F(ChaosTest, ListStalledFlagRunsFlagHelpingDeterministically) {
  // Flag-helping path: a deleter stalls right after placing the flag
  // (erase_begin); an insert that lands on the flagged predecessor must
  // help the whole deletion to completion before inserting.
  lf::FRList<long, long> list;
  for (long k : {10, 20, 30}) ASSERT_TRUE(list.insert(k, k));
  typename lf::FRList<long, long>::StalledErase st;
  ASSERT_TRUE(list.erase_begin(20, st));  // flag placed, then "stall"
  const auto before = lf::stats::aggregate();
  EXPECT_TRUE(list.insert(15, 15));  // prev = node 10, which is flagged
  const auto delta = lf::stats::aggregate() - before;
  EXPECT_GE(delta.help_flagged, 1u);
  EXPECT_GE(delta.mark_cas + delta.pdelete_cas, 1u);  // helper finished it
  EXPECT_GE(chaos::site_hits(Site::kListHelpFlagged), 1u);
  EXPECT_FALSE(list.contains(20));  // helper completed the deletion
  EXPECT_TRUE(list.contains(15));
  EXPECT_TRUE(list.erase_finish(st));  // stalled deleter still owns the win
  EXPECT_TRUE(list.validate().ok);
}

TEST_F(ChaosTest, ListForcedFlagAndMarkCasRetry) {
  lf::FRList<long, long> list;
  for (long k : {1, 2}) ASSERT_TRUE(list.insert(k, k));
  chaos::arm_cas_failures(Site::kListFlagCas, 2);
  chaos::arm_cas_failures(Site::kListMarkCas, 2);
  EXPECT_TRUE(list.erase(1));
  EXPECT_EQ(chaos::forced_cas_failures(Site::kListFlagCas), 2u);
  EXPECT_EQ(chaos::forced_cas_failures(Site::kListMarkCas), 2u);
  EXPECT_EQ(chaos::site_hits(Site::kListFlagCas), 3u);
  EXPECT_FALSE(list.contains(1));
  EXPECT_TRUE(list.validate().ok);
}

TEST_F(ChaosTest, ListBacklinkRecoveryDeterministic) {
  // The paper's recovery path, on demand: locate an insert position, have
  // the predecessor deleted, then complete the insert. The inserter's C&S
  // fails on the marked predecessor and must walk its backlink instead of
  // restarting. Leaky reclamation keeps the deleted node valid across the
  // two phases.
  using List = lf::FRList<long, long, std::less<long>,
                          lf::reclaim::LeakyReclaimer>;
  List list;
  ASSERT_TRUE(list.insert(10, 10));
  ASSERT_TRUE(list.insert(20, 20));
  typename List::InsertCursor cur;
  ASSERT_TRUE(list.insert_locate(15, 15, cur));  // prev = node 10
  ASSERT_TRUE(list.erase(10));                   // prev is now marked
  const auto before = lf::stats::aggregate();
  const std::uint64_t backlink_hits_before =
      chaos::site_hits(Site::kListBacklinkStep);
  EXPECT_TRUE(list.insert_complete(cur));
  const auto delta = lf::stats::aggregate() - before;
  EXPECT_GE(delta.backlink_traversal, 1u);
  EXPECT_GE(chaos::site_hits(Site::kListBacklinkStep),
            backlink_hits_before + 1);
  EXPECT_TRUE(list.contains(15));
  EXPECT_FALSE(list.contains(10));
  EXPECT_TRUE(list.validate().ok);
}

// ---- Deterministic helping: FRSkipList -----------------------------------

TEST_F(ChaosTest, SkipForcedInsertCasRetriesUntilDisarmed) {
  lf::FRSkipList<long, long> s;
  chaos::arm_cas_failures(Site::kSkipInsertCas, 2);
  EXPECT_TRUE(s.insert(5, 5));
  EXPECT_EQ(chaos::forced_cas_failures(Site::kSkipInsertCas), 2u);
  EXPECT_TRUE(s.contains(5));
  EXPECT_TRUE(s.validate().ok);
}

TEST_F(ChaosTest, SkipForcedUnlinkRunsSuperfluousHelpingViaSearch) {
  lf::FRSkipList<long, long> s;
  for (long k : {1, 2, 3}) ASSERT_TRUE(s.insert(k, k));
  chaos::arm_cas_failures(Site::kSkipUnlinkCas, 1);
  const auto before = lf::stats::aggregate();
  EXPECT_TRUE(s.erase(2));
  EXPECT_EQ(chaos::forced_cas_failures(Site::kSkipUnlinkCas), 1u);
  EXPECT_FALSE(s.contains(2));  // superfluous tower helped out of the way
  const auto delta = lf::stats::aggregate() - before;
  EXPECT_GE(delta.help_marked, 1u);
  EXPECT_GE(delta.pdelete_cas, 1u);
  EXPECT_TRUE(s.validate().ok);
  EXPECT_EQ(s.size(), 2u);
}

TEST_F(ChaosTest, SkipForcedFlagAndMarkCasRetry) {
  lf::FRSkipList<long, long> s;
  for (long k : {1, 2}) ASSERT_TRUE(s.insert(k, k));
  chaos::arm_cas_failures(Site::kSkipFlagCas, 2);
  chaos::arm_cas_failures(Site::kSkipMarkCas, 2);
  EXPECT_TRUE(s.erase(1));
  EXPECT_EQ(chaos::forced_cas_failures(Site::kSkipFlagCas), 2u);
  EXPECT_EQ(chaos::forced_cas_failures(Site::kSkipMarkCas), 2u);
  EXPECT_FALSE(s.contains(1));
  EXPECT_TRUE(s.validate().ok);
}

// ---- Deterministic helping: the counted variants ---------------------------
//
// FRListRC and FRSkipListRC run fr::Core's steps too, so the same sites
// fire and the same forced failures take the same recovery paths.

TEST_F(ChaosTest, ListRCForcedInsertCasRetriesUntilDisarmed) {
  lf::FRListRC<long, long> list;
  chaos::arm_cas_failures(Site::kListInsertCas, 3);
  const auto before = lf::stats::aggregate();
  EXPECT_TRUE(list.insert(7, 7));
  const auto delta = lf::stats::aggregate() - before;
  EXPECT_EQ(chaos::forced_cas_failures(Site::kListInsertCas), 3u);
  EXPECT_EQ(chaos::site_hits(Site::kListInsertCas), 4u);
  EXPECT_EQ(delta.insert_cas, 1u);
  EXPECT_TRUE(list.contains(7));
  EXPECT_TRUE(list.validate().ok);
  EXPECT_TRUE(list.validate_accounting());
  EXPECT_TRUE(list.validate_counts());  // the rolled-back pre-counts
}

TEST_F(ChaosTest, SkipRCForcedFlagMarkAndUnlinkCasRetry) {
  lf::FRSkipListRC<long, long> s;
  for (long k : {1, 2, 3}) ASSERT_TRUE(s.insert(k, k));
  chaos::arm_cas_failures(Site::kSkipFlagCas, 2);
  chaos::arm_cas_failures(Site::kSkipMarkCas, 2);
  chaos::arm_cas_failures(Site::kSkipUnlinkCas, 1);
  const auto before = lf::stats::aggregate();
  EXPECT_TRUE(s.erase(2));
  EXPECT_EQ(chaos::forced_cas_failures(Site::kSkipFlagCas), 2u);
  EXPECT_EQ(chaos::forced_cas_failures(Site::kSkipMarkCas), 2u);
  EXPECT_EQ(chaos::forced_cas_failures(Site::kSkipUnlinkCas), 1u);
  EXPECT_FALSE(s.contains(2));  // a search helped the marked root out
  const auto delta = lf::stats::aggregate() - before;
  EXPECT_GE(delta.help_marked, 1u);
  const auto rep = s.validate();
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_TRUE(s.validate_accounting());
  EXPECT_EQ(s.size(), 2u);
}

// ---- Crash-thread matrix --------------------------------------------------
//
// Empirical lock-freedom: park a victim at the given site mid-operation;
// survivors must finish their entire workloads regardless. Exact-count
// semantics are checked in two stages: while the victim is parked its one
// in-flight operation may or may not have linearized (|size - net| <= 1);
// after release and join, counts must match exactly and every invariant
// must hold. Returns whether the victim parked: a site its workload never
// reaches leaves a plain churn run that proves nothing about the site.
//
// By default the victim runs the random workload and parks at its first
// visit to `site`. With `pred_cas` (the structure's insert C&S site) it
// reaches `site`, a backlink step, deterministically instead, as the
// deterministic helping tests do: it first inserts 5 on its own, parks
// before that insert's level-1 C&S, and is released only after the main
// thread has erased 5's predecessor 4. The C&S then fails on the marked
// node and the victim walks its backlink, where it parks again; only then
// do the survivors start.
template <typename Set>
bool run_crash_site(Site site, Site pred_cas = Site::kNumSites) {
  SCOPED_TRACE(chaos::site_name(site));
  chaos::reset();
  Set set;
  std::atomic<long> net{0};
  for (long k = 0; k < 16; k += 2) {
    if (set.insert(k, k)) net.fetch_add(1);
  }

  constexpr int kWorkers = 4;
  constexpr int kOps = 3000;
  const bool via_marked_pred = pred_cas != Site::kNumSites;
  chaos::arm_crash(via_marked_pred ? pred_cas : site, 1);

  lf::harness::Watchdog::Options wopts;
  wopts.stall_timeout = 60s;  // survivors stalling = lock-freedom broken
  wopts.poll_interval = 100ms;
  lf::harness::Watchdog dog(kWorkers, wopts);

  std::atomic<bool> victim_done{false};
  std::latch go(1);  // the survivors' (and a churning victim's) start
  std::vector<std::thread> workers;
  for (int t = 0; t < kWorkers; ++t) {
    workers.emplace_back([&, t] {
      chaos::set_thread_tag(t);
      chaos::set_thread_role(t == 0 ? chaos::Role::kVictim
                                    : chaos::Role::kSurvivor);
      lf::Xoshiro256 rng(0xc0ffee + static_cast<std::uint64_t>(t) * 7919);
      if (t == 0 && via_marked_pred) {
        if (set.insert(5, 5)) net.fetch_add(1);
      } else {
        go.wait();
      }
      for (int i = 0; i < kOps; ++i) {
        const long k = static_cast<long>(rng.below(16));
        if (rng.below(2) == 0) {
          // net is updated immediately after each op so the main thread
          // can bound the count drift while the victim sits parked.
          if (set.insert(k, k)) net.fetch_add(1);
        } else {
          if (set.erase(k)) net.fetch_sub(1);
        }
        dog.beat(t);
      }
      dog.mark_done(t);
      chaos::set_thread_role(chaos::Role::kDefault);
      if (t == 0) victim_done.store(true, std::memory_order_release);
    });
  }

  if (via_marked_pred) {
    EXPECT_TRUE(chaos::wait_parked(30s)) << "victim never reached its C&S";
    if (set.erase(4)) net.fetch_sub(1);  // the main thread never parks
    chaos::arm_crash(site, 1);
    chaos::release_parked();
  }
  go.count_down();

  // Wait until the victim either parks at the armed site or finishes its
  // workload without ever hitting it (possible for rarely-taken sites).
  while (!chaos::parked() && !victim_done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(2ms);
  }
  const bool parked = chaos::parked();
  if (parked) {
    EXPECT_EQ(chaos::parked_tag(), 0);
    dog.mark_parked(0);
  }

  // Lock-freedom: survivors complete their full workloads with the victim
  // frozen mid-operation (the watchdog aborts the run if they stall).
  for (int t = 1; t < kWorkers; ++t) workers[static_cast<std::size_t>(t)].join();

  if (parked) {
    // Structure coherence with a thread frozen mid-protocol: traversal
    // terminates and the count drifts by at most the victim's one
    // in-flight operation. (Full validation must wait — a half-finished
    // deletion legitimately leaves a marked node linked.)
    const long sz = static_cast<long>(set.size());
    const long drift = sz - net.load();
    EXPECT_LE(drift <= 0 ? -drift : drift, 1) << "size " << sz;
    chaos::release_parked();
  }
  workers[0].join();

  // Quiescent again: exact counts and every invariant.
  EXPECT_EQ(set.size(), static_cast<std::size_t>(net.load()));
  const auto rep = set.validate();
  EXPECT_TRUE(rep.ok) << rep.error;
  if constexpr (requires { set.validate_accounting(); }) {
    EXPECT_TRUE(set.validate_accounting());  // counted: nothing stranded
  }
  // The epoch-reclaimed structures retire into the global domain; its
  // counts must match what its lists hold once everyone has stopped.
  EXPECT_TRUE(lf::reclaim::EpochDomain::global().validate_accounting());
  EXPECT_FALSE(dog.stalled());
  dog.stop();
  return parked;
}

// Runs the crash scenario at every site and requires the victim to have
// parked at each one.
template <typename Set>
void run_crash_matrix(std::initializer_list<Site> sites) {
  for (Site site : sites) {
    EXPECT_TRUE(run_crash_site<Set>(site))
        << chaos::site_name(site) << ": the victim never reached the site";
  }
}

// A random workload reaches a backlink step only when a victim C&S fails
// on a predecessor marked meanwhile (over 30 runs, FRSkipList parked there
// in 1, FRSkipListRC in 20, FRListRC in 2), so these three matrices park
// their backlink-step row through a marked predecessor instead.
template <typename Set>
void run_backlink_crash_row(Site backlink_step, Site insert_cas) {
  EXPECT_TRUE(run_crash_site<Set>(backlink_step, insert_cas))
      << chaos::site_name(backlink_step)
      << ": the victim never reached the site";
}

TEST_F(ChaosTest, CrashMatrixFRList) {
  run_crash_matrix<lf::FRList<long, long>>(
      {Site::kListSearchStep, Site::kListInsertCas, Site::kListFlagCas,
       Site::kListMarkCas, Site::kListUnlinkCas, Site::kListBacklinkStep,
       Site::kListHelpFlagged, Site::kListHelpMarked,
       Site::kListFingerValidate, Site::kListFingerFallback,
       Site::kListFingerReplace});
}

TEST_F(ChaosTest, CrashMatrixFRSkipList) {
  using Set = lf::FRSkipList<long, long>;
  run_crash_matrix<Set>(
      {Site::kSkipSearchStep, Site::kSkipInsertCas, Site::kSkipFlagCas,
       Site::kSkipMarkCas, Site::kSkipUnlinkCas, Site::kSkipHelpFlagged,
       Site::kSkipHelpMarked, Site::kSkipTowerBuild});
  run_backlink_crash_row<Set>(Site::kSkipBacklinkStep, Site::kSkipInsertCas);
}

TEST_F(ChaosTest, CrashMatrixFRListRC) {
  using Set = lf::FRListRC<long, long>;
  run_crash_matrix<Set>(
      {Site::kListSearchStep, Site::kListInsertCas, Site::kListFlagCas,
       Site::kListMarkCas, Site::kListUnlinkCas, Site::kListHelpFlagged,
       Site::kListHelpMarked, Site::kListFingerValidate,
       Site::kListFingerFallback, Site::kListFingerReplace});
  run_backlink_crash_row<Set>(Site::kListBacklinkStep, Site::kListInsertCas);
}

TEST_F(ChaosTest, CrashMatrixFRSkipListRC) {
  using Set = lf::FRSkipListRC<long, long>;
  run_crash_matrix<Set>(
      {Site::kSkipSearchStep, Site::kSkipInsertCas, Site::kSkipFlagCas,
       Site::kSkipMarkCas, Site::kSkipUnlinkCas, Site::kSkipHelpFlagged,
       Site::kSkipHelpMarked, Site::kSkipTowerBuild,
       Site::kSkipFingerValidate, Site::kSkipFingerFallback,
       Site::kSkipFingerReplace});
  run_backlink_crash_row<Set>(Site::kSkipBacklinkStep, Site::kSkipInsertCas);
}

// ---- The top hint falls below a parked tower build ------------------------
//
// A victim builds key 15 as a height-6 tower and parks at kSkipTowerBuild
// after linking level 3. The main thread then erases the two taller towers,
// so the hint falls to the parked build's level 3 (DESIGN.md §2, "Deviation:
// the top hint falls"). Released, the build links levels 4-6 and raises
// the hint again. Erased while parked, the tower's erase sweeps all six
// levels whatever the hint says, and the released builder finds its root
// marked: FRSkipList's cannot grow its retired tower, FRSkipListRC's links
// level 4 and deletes it again. Either way no superfluous node stays
// linked and no node sits above the hint.
template <typename Set>
void run_parked_build_under_falling_hint(bool erase_while_parked) {
  chaos::reset();
  Set s;
  for (long k = 1; k <= 5; ++k)
    ASSERT_EQ(s.insert_with_height(k, k, 2), Set::InsertStatus::kInserted);
  ASSERT_EQ(s.insert_with_height(10, 10, 12), Set::InsertStatus::kInserted);
  ASSERT_EQ(s.insert_with_height(20, 20, 9), Set::InsertStatus::kInserted);
  ASSERT_EQ(s.top_level_hint(), 12);

  chaos::arm_crash(Site::kSkipTowerBuild, 3);  // after linking level 3
  std::uint64_t linked = 0;  // the victim's insert C&Ss
  std::thread victim([&] {
    chaos::set_thread_role(chaos::Role::kVictim);
    const auto before = lf::stats::tls().read();
    EXPECT_EQ(s.insert_with_height(15, 15, 6), Set::InsertStatus::kInserted);
    linked = (lf::stats::tls().read() - before).insert_cas;
    chaos::set_thread_role(chaos::Role::kDefault);
  });
  ASSERT_TRUE(chaos::wait_parked(30s));
  ASSERT_TRUE(s.erase(10));
  EXPECT_EQ(s.top_level_hint(), 9);
  ASSERT_TRUE(s.erase(20));
  EXPECT_EQ(s.top_level_hint(), 3);  // the parked build's top level
  if (erase_while_parked) {
    ASSERT_TRUE(s.erase(15));
    EXPECT_EQ(s.top_level_hint(), 2);
  }
  chaos::release_parked();
  victim.join();

  constexpr bool kCounted = requires { s.validate_accounting(); };
  EXPECT_EQ(linked, !erase_while_parked ? 6u : kCounted ? 4u : 3u);
  EXPECT_EQ(s.top_level_hint(), erase_while_parked ? 2 : 6);
  EXPECT_EQ(s.contains(15), !erase_while_parked);
  EXPECT_EQ(s.size(), erase_while_parked ? 5u : 6u);
  const auto rep = s.validate();  // no superfluous node, none above the hint
  EXPECT_TRUE(rep.ok) << rep.error;
  if constexpr (kCounted) {
    EXPECT_TRUE(s.validate_accounting());
  }
  EXPECT_TRUE(lf::reclaim::EpochDomain::global().validate_accounting());
}

TEST_F(ChaosTest, TopHintFallsBelowParkedBuildReleased) {
  run_parked_build_under_falling_hint<lf::FRSkipList<long, long>>(false);
}

TEST_F(ChaosTest, TopHintFallsBelowParkedBuildErasedWhileParked) {
  run_parked_build_under_falling_hint<lf::FRSkipList<long, long>>(true);
}

TEST_F(ChaosTest, TopHintFallsBelowParkedBuildReleasedRC) {
  run_parked_build_under_falling_hint<lf::FRSkipListRC<long, long>>(false);
}

TEST_F(ChaosTest, TopHintFallsBelowParkedBuildErasedWhileParkedRC) {
  run_parked_build_under_falling_hint<lf::FRSkipListRC<long, long>>(true);
}

// Crash inside the reclaimers' entry points: survivors keep operating (the
// epoch stops advancing, which defers reclamation but never blocks).
TEST_F(ChaosTest, CrashInEpochRetireDoesNotBlockSurvivors) {
  const bool parked =
      run_crash_site<lf::FRList<long, long>>(Site::kEpochRetire);
  EXPECT_TRUE(parked);
}

// ---- Stalled-thread resilience rows (DESIGN.md §11) -----------------------
//
// The rows above demonstrate lock-freedom of the OPERATIONS with a victim
// frozen mid-protocol; reclamation, however, silently stops (the parked pin
// blocks the epoch forever). These rows assert the resilience layer lifts
// that: the stalled pin is neutralized so the epoch resumes, the enabled
// frees divert into the bounded quarantine (never freed early — ASan checks
// the resumed victim's traversal), and orphan adoption recovers the
// victim's resources. Run under -DLF_SANITIZE_ADDRESS=ON in CI.

TEST_F(ChaosTest, PinnedVictimNeutralizedAndReclamationResumes) {
  using lf::reclaim::EpochDomain;
  using List =
      lf::FRList<long, long, std::less<long>, lf::reclaim::EpochReclaimer>;
  EpochDomain domain;
  EpochDomain::ResilienceOptions ro;
  ro.neutralize = true;
  ro.blame_threshold = 4;
  domain.set_resilience(ro);
  List set{lf::reclaim::EpochReclaimer(domain)};

  std::atomic<long> net{0};
  for (long k = 0; k < 16; k += 2) {
    if (set.insert(k, k)) net.fetch_add(1);
  }
  constexpr int kWorkers = 4;
  constexpr int kOps = 3000;
  // The victim parks inside its first search: pinned mid-traversal, holding
  // live node references — the worst case for neutralization.
  chaos::arm_crash(Site::kListSearchStep, 1);

  lf::harness::Watchdog::Options wopts;
  wopts.stall_timeout = 60s;
  wopts.poll_interval = 100ms;
  lf::harness::Watchdog dog(kWorkers, wopts);
  std::barrier start(kWorkers);
  std::vector<std::thread> workers;
  for (int t = 0; t < kWorkers; ++t) {
    workers.emplace_back([&, t] {
      chaos::set_thread_tag(t);
      chaos::set_thread_role(t == 0 ? chaos::Role::kVictim
                                    : chaos::Role::kSurvivor);
      lf::Xoshiro256 rng(0xfade + static_cast<std::uint64_t>(t) * 7919);
      start.arrive_and_wait();
      for (int i = 0; i < kOps; ++i) {
        const long k = static_cast<long>(rng.below(16));
        if (rng.below(2) == 0) {
          if (set.insert(k, k)) net.fetch_add(1);
        } else {
          if (set.erase(k)) net.fetch_sub(1);
        }
        dog.beat(t);
      }
      dog.mark_done(t);
      chaos::set_thread_role(chaos::Role::kDefault);
    });
  }
  ASSERT_TRUE(chaos::wait_parked(30s));
  dog.mark_parked(0);
  for (int t = 1; t < kWorkers; ++t)
    workers[static_cast<std::size_t>(t)].join();

  // Survivor churn (plus a main-thread top-up) drives the advancer past the
  // blame threshold: the parked pin is ejected and the epoch resumes —
  // within the documented grace bound of advancer activity, not wall time.
  const std::uint64_t e_park = domain.epoch();
  lf::Xoshiro256 rng(0xabcdef);
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  while ((domain.ejected_count() == 0 || domain.epoch() < e_park + 2 ||
          domain.quarantine_depth() == 0) &&
         std::chrono::steady_clock::now() < deadline) {
    const long k = static_cast<long>(rng.below(16));
    if (rng.below(2) == 0) {
      if (set.insert(k, k)) net.fetch_add(1);
    } else {
      if (set.erase(k)) net.fetch_sub(1);
    }
  }
  EXPECT_EQ(domain.ejected_count(), 1u);
  EXPECT_GE(domain.epoch(), e_park + 2);  // no longer blocked by the pin
  // Graceful degradation: frees enabled by the ejection diverted into the
  // quarantine (the parked victim may still hold them) and stay bounded.
  EXPECT_GT(domain.quarantine_depth(), 0u);
  EXPECT_LE(domain.quarantine_depth(), EpochDomain::kQuarantineSoftCap);

  // The victim resumes its traversal over nodes whose grace period elapsed
  // mid-park: only the quarantine makes that safe, and ASan verifies it.
  chaos::release_parked();
  workers[0].join();
  // Its outermost unpin acknowledged the ejection; the quarantine drains.
  EXPECT_EQ(domain.ejected_count(), 0u);
  domain.drain();
  EXPECT_EQ(domain.quarantine_depth(), 0u);
  EXPECT_EQ(set.size(), static_cast<std::size_t>(net.load()));
  const auto rep = set.validate();
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_FALSE(dog.stalled());
  dog.stop();
}

TEST_F(ChaosTest, VictimParkedInRetireIsAdoptedAndBacklogDrains) {
  using lf::reclaim::EpochDomain;
  using List =
      lf::FRList<long, long, std::less<long>, lf::reclaim::EpochReclaimer>;
  EpochDomain domain;
  List set{lf::reclaim::EpochReclaimer(domain)};

  std::atomic<long> net{0};
  for (long k = 0; k < 16; k += 2) {
    if (set.insert(k, k)) net.fetch_add(1);
  }
  constexpr int kWorkers = 4;
  constexpr int kOps = 3000;
  // Park the victim entering its 12th retire: its limbo lists hold ~11
  // nodes, and the park site precedes the internal guard, so the victim
  // sits OUTSIDE any guarded region — the resumable-adoption contract.
  chaos::arm_crash(Site::kEpochRetire, 12);

  lf::harness::Watchdog::Options wopts;
  wopts.stall_timeout = 60s;
  wopts.poll_interval = 100ms;
  lf::harness::Watchdog dog(kWorkers, wopts);
  std::barrier start(kWorkers);
  std::vector<std::thread> workers;
  for (int t = 0; t < kWorkers; ++t) {
    workers.emplace_back([&, t] {
      chaos::set_thread_tag(t);
      chaos::set_thread_role(t == 0 ? chaos::Role::kVictim
                                    : chaos::Role::kSurvivor);
      lf::Xoshiro256 rng(0xbeef + static_cast<std::uint64_t>(t) * 7919);
      start.arrive_and_wait();
      for (int i = 0; i < kOps; ++i) {
        const long k = static_cast<long>(rng.below(16));
        if (rng.below(2) == 0) {
          if (set.insert(k, k)) net.fetch_add(1);
        } else {
          if (set.erase(k)) net.fetch_sub(1);
        }
        dog.beat(t);
      }
      dog.mark_done(t);
      chaos::set_thread_role(chaos::Role::kDefault);
    });
  }
  const std::thread::id victim_id = workers[0].get_id();
  ASSERT_TRUE(chaos::wait_parked(30s));
  dog.mark_parked(0);
  for (int t = 1; t < kWorkers; ++t)
    workers[static_cast<std::size_t>(t)].join();

  // Adoption finds the victim's slot. How many limbo nodes it strands is
  // schedule-dependent (concurrent advances may have disposed them all
  // before the park) — the orphan_adopt count is asserted in the
  // deterministic unit test; here the outcome is what matters:
  EXPECT_TRUE(domain.adopt_stalled(victim_id));
  // With the victim's garbage orphaned (and no one pinned), the whole
  // backlog drains without the victim's participation.
  domain.drain();
  EXPECT_EQ(domain.retired_count(), 0u);

  // The victim resumes INSIDE retire (files its node normally) and runs
  // its remaining workload on the slot adoption left registered.
  chaos::release_parked();
  workers[0].join();
  domain.drain();
  EXPECT_EQ(domain.retired_count(), 0u);
  EXPECT_EQ(set.size(), static_cast<std::size_t>(net.load()));
  const auto rep = set.validate();
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_FALSE(dog.stalled());
  dog.stop();
}

TEST_F(ChaosTest, ListInsertSurfacesAllocFailureCleanly) {
  using List = lf::FRList<long, long>;
  List list;
  ASSERT_TRUE(list.insert(1, 1));
  chaos::arm_alloc_failure(1);  // next pooled allocation throws
  EXPECT_EQ(list.insert_checked(2, 2), List::InsertStatus::kNoMemory);
  EXPECT_EQ(chaos::alloc_failures_injected(), 1u);
  // Nothing half-linked: the structure is intact and the key insertable.
  EXPECT_FALSE(list.contains(2));
  EXPECT_TRUE(list.validate().ok);
  EXPECT_EQ(list.insert_checked(2, 2), List::InsertStatus::kInserted);
  EXPECT_EQ(list.insert_checked(2, 2), List::InsertStatus::kDuplicate);
  EXPECT_EQ(list.size(), 2u);
}

TEST_F(ChaosTest, SkipRootAllocFailureSurfacesCleanly) {
  using Skip = lf::FRSkipList<long, long>;
  Skip s;
  ASSERT_TRUE(s.insert(1, 1));
  chaos::arm_alloc_failure(1);
  EXPECT_EQ(s.insert_checked(2, 2), Skip::InsertStatus::kNoMemory);
  EXPECT_FALSE(s.contains(2));
  EXPECT_TRUE(s.validate().ok);
  EXPECT_EQ(s.insert_checked(2, 2), Skip::InsertStatus::kInserted);
  EXPECT_EQ(s.size(), 2u);
}

TEST_F(ChaosTest, SegmentCarveFailureSurfacesAsBadAlloc) {
  // With the next segment carve armed to fail, allocate max-class blocks
  // in a fresh thread until its cache AND the shared freelist (donations
  // from every previously exited thread) are drained; the carve that must
  // follow throws, and the pool is left consistent — the retry after
  // disarming carves a real segment and succeeds.
  chaos::arm_segment_failure(1);
  std::atomic<bool> threw{false};
  std::thread t([&] {
    std::vector<void*> blocks;
    try {
      // Bounded far above anything freelists + one bump region can hold.
      for (int i = 0; i < 200'000; ++i)
        blocks.push_back(lf::mem::pool_allocate(4096));
    } catch (const std::bad_alloc&) {
      threw.store(true);
      void* p = lf::mem::pool_allocate(4096);  // disarmed: must succeed
      EXPECT_NE(p, nullptr);
      lf::mem::pool_deallocate(p, 4096);
    }
    for (void* p : blocks) lf::mem::pool_deallocate(p, 4096);
  });
  t.join();
  EXPECT_TRUE(threw.load());
  EXPECT_EQ(chaos::alloc_failures_injected(), 1u);
}

// ---- PCT-style scheduling -------------------------------------------------

TEST_F(ChaosTest, ScheduledChurnKeepsExactCounts) {
  // Randomized-priority perturbation at every injection point; the
  // structure must hold exact-count semantics under the induced schedules
  // exactly as it does under plain yield fuzzing.
  chaos::enable_scheduling(/*seed=*/0xfeedface, /*yield_permille=*/60,
                           /*delay_us=*/30, /*reshuffle_period=*/512);
  lf::FRList<long, long> list;
  std::atomic<long> net{0};
  constexpr int kWorkers = 4;
  std::barrier start(kWorkers);
  std::vector<std::thread> workers;
  for (int t = 0; t < kWorkers; ++t) {
    workers.emplace_back([&, t] {
      chaos::set_thread_tag(t);
      lf::Xoshiro256 rng(0xabc + static_cast<std::uint64_t>(t) * 31);
      long local = 0;
      start.arrive_and_wait();
      for (int i = 0; i < 2000; ++i) {
        const long k = static_cast<long>(rng.below(32));
        switch (rng.below(3)) {
          case 0:
            if (list.insert(k, k)) ++local;
            break;
          case 1:
            if (list.erase(k)) --local;
            break;
          default:
            list.contains(k);
        }
      }
      net.fetch_add(local);
    });
  }
  for (auto& w : workers) w.join();
  chaos::disable_scheduling();
  EXPECT_EQ(list.size(), static_cast<std::size_t>(net.load()));
  EXPECT_TRUE(list.validate().ok);
  EXPECT_GT(chaos::site_hits(Site::kListInsertCas), 0u);
  EXPECT_GT(chaos::site_hits(Site::kListSearchStep), 0u);
}

// ---- Introspection --------------------------------------------------------

TEST_F(ChaosTest, ThreadReportsAndSiteNames) {
  for (int i = 0; i < chaos::kSiteCount; ++i) {
    const char* name = chaos::site_name(static_cast<Site>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "<invalid-site>") << "site " << i;
  }
  EXPECT_STREQ(chaos::site_name(Site::kNumSites), "<invalid-site>");

  lf::FRList<long, long> list;
  chaos::set_thread_tag(42);
  list.insert(1, 1);
  const auto reports = chaos::thread_reports();
  bool found = false;
  for (const auto& r : reports) {
    if (r.tag == 42) {
      found = true;
      EXPECT_GT(r.points, 0u);
      EXPECT_FALSE(r.parked);
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
