// Chaos layer — deterministic fault injection for the lock-free structures.
//
// The paper's central guarantee is lock-freedom: a thread that stalls (or
// dies) between the steps of the flag/mark/unlink protocol must never block
// other operations, because any thread that runs into the half-done state
// helps it to completion. Random schedules on a real machine almost never
// produce those windows, so this subsystem makes them *injectable*: every
// CAS, helping routine, backlink hop and allocation in the hot paths is a
// named INJECTION SITE, and a process-wide controller can perturb, fail,
// or permanently park a thread at any of them.
//
// The layer is compile-time optional: configure with -DLF_CHAOS=ON to arm
// it. When OFF (the default), LF_CHAOS_POINT(...) expands to `((void)0)`
// and chaos::cas inlines to the bare primitive, so production builds
// carry zero cost — bench_fault_recovery statically verifies the expansion.
//
// Fault modes (all seeded and reproducible):
//   1. SCHEDULING  PCT-style randomized priorities: every thread draws a
//      priority from the controller's seed; at seeded injection points the
//      low-priority threads yield or sleep, and priorities reshuffle at
//      change points — biasing the schedule toward the preemption-in-the-
//      middle-of-a-multi-CAS-sequence windows plain ::yield fuzzing rarely
//      reaches.
//   2. CAS FORCING  make the first N (or k-out-of-every-m) attempts at a
//      named site fail without touching memory. A forced failure returns a
//      value that matches none of the caller's success/flag patterns, so
//      the caller re-reads real state and takes its recovery path — retry,
//      helping, or backlink walk — deterministically.
//   3. CRASH-THREAD  park a victim thread forever at a chosen site,
//      mid-operation. The empirical lock-freedom test: survivors must
//      still finish their workloads and the structure must stay coherent.
//      "Forever" ends at release_parked() so the test can later let the
//      victim resume, finish its operation, and verify exact counts.
//   4. ALLOCATION FAILURE  make the Nth pooled allocation (or segment
//      carve) throw std::bad_alloc, so the insert error paths run: no
//      partially-linked node, no leaked block, structure intact.
//
// Thread identity: tests tag threads (set_thread_tag) and assign roles
// (set_thread_role) so crash injection can target the designated victim
// while the checking thread traverses freely.
#pragma once

#include <cstdint>

#if LF_CHAOS
#include <chrono>
#include <vector>
#endif

#include "lf/instrument/counters.h"

namespace lf::chaos {

// Every injection site threaded through the codebase. One enumerator per
// *kind* of step, not per code line: the crash matrix iterates these.
enum class Site : int {
  // FRList (core/fr_list.h)
  // The C&S, backlink and helping sites fire inside fr::Core
  // (core/fr_core.h), which all four FR structures share; the lists pass
  // these, the skip lists (FRSkipList, FRSkipListRC) the kSkip* ones.
  kListSearchStep = 0,  // search_right: advance to the next node
  kListInsertCas,       // insert_step: insertion C&S
  kListFlagCas,         // try_flag: flagging C&S (deletion step 1)
  kListMarkCas,         // try_mark: marking C&S (deletion step 2)
  kListUnlinkCas,       // help_marked: physical-deletion C&S (step 3)
  kListBacklinkStep,    // walk_backlinks: one hop along a backlink chain
                        // (C&S recovery and finger recovery alike)
  kListHelpFlagged,     // help_flagged entry
  kListHelpMarked,      // help_marked entry
  kListFingerValidate,  // finger_start: cached hint qualified, about to be
                        // recovered/used (thread holds a validated finger)
  kListFingerFallback,  // finger_start: no usable hint, search starts at head
  kListFingerReplace,   // search_entry: LFU-aging replacement picking a
                        // victim way (no in-place refresh matched)
  // FRSkipList (core/fr_skiplist.h)
  kSkipSearchStep,
  kSkipInsertCas,
  kSkipFlagCas,
  kSkipMarkCas,
  kSkipUnlinkCas,
  kSkipBacklinkStep,
  kSkipHelpFlagged,
  kSkipHelpMarked,
  kSkipTowerBuild,  // insert: before linking the next tower level
  // FRSkipListRC's finger (core/fr_skiplist_rc.h); FRSkipList has none
  kSkipFingerValidate,  // finger_start: cached descent entry qualified
  kSkipFingerFallback,  // finger_start: no usable entry, head descent
  kSkipFingerReplace,   // save_finger: LFU-aging replacement picking a
                        // victim way (no in-place refresh matched)
  // Baselines — E12 fault injection. mark::Core (baselines/mark_core.h)
  // fires these for all four mark-only lists (HarrisList, MichaelList,
  // MichaelListHP, FRListNoFlag); RestartSkipList fires them itself.
  kBaseInsertCas,
  kBaseMarkCas,
  kBaseUnlinkCas,
  // Reclaimers
  kEpochPin,      // EpochDomain::Guard: outermost pin
  kEpochRetire,   // EpochDomain::retire_erased
  kEpochAdvance,  // EpochDomain::try_advance entry (before the lock)
  kEpochEject,    // EpochDomain: a stalled pin was neutralized (fires after
                  // the registry lock is released — parking here must not
                  // block the domain)
  kEpochEjectAck, // EpochDomain: ejected thread acknowledging at unpin /
                  // re-pin (entry, before the registry lock)
  kHazardRetire,  // HazardDomain::retire_erased
  kHazardScan,    // HazardDomain::scan_record entry
  // Segment pool (mem/pool.*)
  kPoolAlloc,    // pool_allocate entry
  kPoolSegment,  // segment carve from a huge-page chunk (spares tried first)
  kPoolFree,     // pool_deallocate entry
  // Test harness: between dictionary operations (YieldInjector)
  kOpBoundary,

  kNumSites
};

inline constexpr int kSiteCount = static_cast<int>(Site::kNumSites);

// Stable human-readable site name (watchdog dumps, test matrices).
// Available in both build modes.
const char* site_name(Site s) noexcept;

// Crash-injection thread roles. kVictim threads are eligible for parking;
// everything else (checkers, survivors, the main thread) never parks.
enum class Role : int { kDefault = 0, kVictim, kSurvivor };

#if LF_CHAOS

inline constexpr bool kCompiledIn = true;

// ---- Controller ---------------------------------------------------------
// All armings are process-wide and one-shot per reset(). Tests arm, run,
// assert, reset. Nothing here is on any hot path unless armed.

// Disarm every mode, zero all chaos statistics, release a parked victim.
void reset();

// Mode 1: PCT-style schedule perturbation. At every injection point a
// seeded hash of (seed, sequence, site, thread) decides whether to perturb;
// perturbed low-priority threads sleep `delay_us`, high-priority threads
// yield. Priorities reshuffle every `reshuffle_period` global points.
void enable_scheduling(std::uint64_t seed, unsigned yield_permille,
                       unsigned delay_us = 0,
                       std::uint64_t reshuffle_period = 1024);
void disable_scheduling();

// Mode 2: CAS-outcome forcing. first_n: the next `first_n` attempts at
// `site` fail; pattern: of every `per` attempts at `site`, the first
// `fail` are forced to fail (per-operation failure trains for E12).
void arm_cas_failures(Site site, std::uint64_t first_n);
void arm_cas_failure_pattern(Site site, std::uint32_t fail,
                             std::uint32_t per);

// Mode 3: crash-thread. The victim-role thread making the `nth_hit`-th
// victim-role visit (1-based) to `site` parks until release_parked().
// Arming while a victim is parked arms its next stop: release_parked()
// returns once the released victim has left or has parked there.
void arm_crash(Site site, std::uint64_t nth_hit);
bool parked() noexcept;            // is a victim currently parked?
int parked_tag() noexcept;         // its set_thread_tag value; -1 if none
bool wait_parked(std::chrono::milliseconds timeout);
void release_parked();

// Mode 4: allocation failure. The nth_request-th pooled allocation request
// (1-based, counted from arming) throws std::bad_alloc; nth_segment counts
// only segments carved from a huge-page chunk (a refill that takes a spare
// region carves none).
void arm_alloc_failure(std::uint64_t nth_request);
void arm_segment_failure(std::uint64_t nth_segment);

// ---- Per-thread identity (thread_local) ---------------------------------
void set_thread_role(Role role) noexcept;
void set_thread_tag(int tag) noexcept;

// ---- Statistics ---------------------------------------------------------
std::uint64_t site_hits(Site site) noexcept;
std::uint64_t forced_cas_failures(Site site) noexcept;
std::uint64_t alloc_failures_injected() noexcept;

// Per-thread progress snapshot for the watchdog's stall dump.
struct ThreadReport {
  int tag = -1;
  Role role = Role::kDefault;
  bool parked = false;
  Site last_site = Site::kNumSites;   // kNumSites = no point hit yet
  std::uint64_t points = 0;           // total injection points visited
  std::uint64_t same_site_streak = 0; // consecutive visits to last_site
  std::uint64_t backlink_steps = 0;   // backlink hops (recovery depth)
};
std::vector<ThreadReport> thread_reports();

// ---- Hot-path hooks (called from the instrumented sites) ----------------
void point(Site site);               // count + schedule + maybe park
bool force_cas_fail(Site site);      // consume one forced failure?
bool should_fail_alloc(bool segment);  // pool: throw bad_alloc here?

#else  // !LF_CHAOS

inline constexpr bool kCompiledIn = false;

#endif  // LF_CHAOS

// The C&S every protocol step of the lock-free structures goes through.
// With chaos off it inlines to the bare field.cas. With chaos on, the site
// becomes an injection point, and an armed forced failure returns a view
// matching no caller's success or helping pattern (marked, no successor);
// callers then re-read real state and take their recovery path (retry /
// help / backlink walk) exactly as if a concurrent thread had won the C&S.
template <typename Field>
typename Field::View cas([[maybe_unused]] Site site, Field& field,
                         typename Field::View expected,
                         typename Field::View desired,
                         stats::StepCounters& c = stats::tls()) {
#if LF_CHAOS
  point(site);
  if (force_cas_fail(site)) {
    c.cas_attempt.inc();  // a failed attempt is still a step
    return typename Field::View{nullptr, true, false};
  }
#endif
  return field.cas(expected, desired, c);
}

// ---- Yield injection for schedule-fuzz tests (both build modes) ---------
//
// Supersedes the ad-hoc rng yields tests used to sprinkle between
// operations. With chaos OFF it reproduces them: a seeded, deterministic
// yield decision per operation boundary. With chaos ON each boundary is
// also a kOpBoundary injection point, so the PCT scheduler, crash arming
// and hit counting all see operation boundaries too.
class YieldInjector {
 public:
  explicit YieldInjector(std::uint64_t seed) noexcept;

  // Call between operations. Yields on ~1/3 of boundaries (seeded).
  void op_boundary();

 private:
  std::uint64_t state_;
};

}  // namespace lf::chaos

// Bare injection point. Compiles to nothing when chaos is off; the
// stringized expansion is what bench_fault_recovery statically checks.
#if LF_CHAOS
#define LF_CHAOS_POINT(site) ::lf::chaos::point(::lf::chaos::Site::site)
#else
#define LF_CHAOS_POINT(site) ((void)0)
#endif
