// Finger (search-hint) layer: per-thread, per-structure memory of where
// recent searches ended, so the next search can start there instead of at
// the head.
//
// Since PR 5 the memory is a small set-associative cache rather than a
// single hint: each (thread, instance) slot holds kFingerCacheWays entries,
// keyed by the bracket of keys the cached position serves ([pred_key,
// succ_key]), with least-frequently-hit-with-aging replacement
// (finger_victim_pick below). A search probes for the way whose cached
// bracket contains the target key, validates ONLY that way with the
// reclaimer-specific protocol below, and falls back to the head on a miss.
// This is what serves skewed-but-scattered (zipf) hot sets: a single
// finger thrashes when the hot keys are popular but far apart, while k
// ways hold k disjoint hot brackets simultaneously — provided replacement
// is frequency-aware, since the zipf tail's miss flow laps any
// recency-only policy before the hot keys recur.
//
// The paper's machinery makes this safe almost for free: a stale hint is
// self-identifying (its mark bit is set), and a marked node carries a
// backlink to a node further LEFT, so a search that starts from a stale
// finger recovers exactly the way a failed C&S recovers — walk backlinks to
// the nearest unmarked node and resume. Starting a search at any unmarked
// node with key < k is precisely the restart the paper's Insert/TryFlag
// loops already perform after backlink recovery, so the finger adds no new
// proof obligations to the traversal itself (DESIGN.md §10).
//
// What IS new is the memory-reclamation obligation: the cached node pointer
// outlives the guard under which it was found, so before dereferencing it a
// later operation must prove the node (and its whole backlink chain) has
// not been freed in between. That proof is reclaimer-specific, which is why
// the layer is a policy keyed on the reclaimer:
//
//   LeakyReclaimer   nodes are never freed; every saved finger stays
//                    dereferenceable forever. Token is a constant.
//
//   EpochReclaimer   the token is the epoch the saving thread ADVERTISED
//                    while pinned. Any node the thread could reach during
//                    that pin was retired no earlier than that epoch e (the
//                    epoch argument in reclaim/epoch.h), so it is freed only
//                    once the global epoch reaches e + 2. A later pin that
//                    advertises the SAME epoch e (checked by comparing
//                    tokens) both proves the global never reached e + 2 and,
//                    by staying pinned at e, blocks the advance past e + 1
//                    for the whole new operation — the finger and every
//                    backlink reachable from it stay dereferenceable.
//                    Strictly-equal tokens are required: one epoch of slack
//                    would admit a node freed exactly at e + 2.
//
//   HazardReclaimer  the layered epoch + hazard-pointer policy
//                    (reclaim/hazard.h). The token is a constant — tokens
//                    cannot prove anything here, because the cached pointer
//                    outlives every pin. Instead the policy PUBLISHES
//                    (kPublishes below): at save time the structure stores
//                    the finger into the thread's retained hazard slot, and
//                    reuse re-acquires it by slot match (publish-then-
//                    revalidate): if the slot still holds exactly the cached
//                    pointer under the structure's instance tag, protection
//                    was continuous since a moment the node was provably
//                    alive, so it is still dereferenceable; any mismatch
//                    fails closed to a head start without dereferencing.
//                    (The list retains one slot per cache way; only FRList
//                    supports this policy — FRSkipList has no finger.)
//                    A marked finger recovers through its backlink chain
//                    with each hop published into the hop slot, and the
//                    domain's scan protects the whole published chain
//                    (reclaim/hazard.cpp::scan_record, DESIGN.md §10).
//
//   anything else    — the primary template reports kSupported = false and
//                    the structures compile the finger code out entirely.
//
// The reference-counted variants (core/*_rc.h) do not use tokens; they
// validate by re-acquiring a count on the node and checking a per-node
// reuse stamp (see fr_list_rc.h::finger_try_hold).
//
// Storage: hints live in thread_local direct-mapped slot arrays, keyed by a
// monotonically increasing per-structure instance id. Ids are never reused,
// so a slot left over from a destroyed structure can never be mistaken for
// the current one (the id check fails without touching the stale pointer).
//
// The whole layer is statically removable: structures take a FingerOn /
// FingerOff policy tag (default on) and guard every finger touch with
// `if constexpr`, so the off configuration is zero-cost the same way
// LF_CHAOS off is.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "lf/reclaim/epoch.h"
#include "lf/reclaim/hazard.h"
#include "lf/reclaim/leaky.h"

namespace lf::sync {

// Structure-level on/off switch (template parameter of FRList, FRListRC and
// FRSkipListRC).
struct FingerOn {
  static constexpr bool kEnabled = true;
};
struct FingerOff {
  static constexpr bool kEnabled = false;
};

// Reclaimer-specific validity proof. token() is called while the calling
// thread holds the reclaimer's guard, both when saving a finger and when
// attempting to reuse one; a saved entry is dereferenceable iff its saved
// token equals the current one.
//
// kPublishes marks policies whose proof is NOT token-based but slot-based:
// the structure must additionally call the reclaimer's finger_publish /
// finger_reacquire / finger_protect_hop / finger_invalidate hooks (the
// token still participates so the shared save/validate plumbing stays
// uniform; publishing policies use a constant token that always matches and
// let the slot re-acquisition be the real proof).
template <typename Reclaimer>
struct FingerPolicy {
  static constexpr bool kSupported = false;
  static constexpr bool kPublishes = false;
  static constexpr int kPublishedWays = 0;
  static std::uint64_t token(Reclaimer&) noexcept { return 0; }
};

template <>
struct FingerPolicy<reclaim::LeakyReclaimer> {
  static constexpr bool kSupported = true;
  static constexpr bool kPublishes = false;
  static constexpr int kPublishedWays = 0;
  static std::uint64_t token(reclaim::LeakyReclaimer&) noexcept {
    return 1;  // nodes are immortal: every saved finger stays valid
  }
};

template <>
struct FingerPolicy<reclaim::EpochReclaimer> {
  static constexpr bool kSupported = true;
  static constexpr bool kPublishes = false;
  static constexpr int kPublishedWays = 0;
  static std::uint64_t token(reclaim::EpochReclaimer& r) {
    // +1 keeps 0 free as the "empty entry" value even if a domain ever
    // started at epoch 0 (the default domain starts at kBuckets).
    return r.pinned_epoch() + 1;
  }
};

template <>
struct FingerPolicy<reclaim::HazardReclaimer> {
  static constexpr bool kSupported = true;
  static constexpr bool kPublishes = true;
  // Retained slots available per thread, one per cache way.
  static constexpr int kPublishedWays = reclaim::HazardReclaimer::kFingerEntries;
  static std::uint64_t token(reclaim::HazardReclaimer&) noexcept {
    // Constant: the epoch pin expires between operations and per-pointer
    // validation proves nothing for a cross-operation pointer, so no token
    // can carry the proof. The retained-slot match in finger_reacquire is
    // the actual validity argument (see reclaim/hazard.h).
    return 1;
  }
};

// Monotonic id for finger-bearing structure instances. Never reused, so
// slot contents from a destroyed (or address-recycled) instance fail the id
// check instead of being dereferenced.
inline std::uint64_t next_finger_instance() noexcept {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

// Set associativity of the per-(thread, instance) finger cache: how many
// bracket-keyed entries each structure keeps. Matches the hazard domain's
// retained-entry budget so a publishing policy can retain every way in its
// own slot (static_asserted at the use site in core/fr_list.h).
inline constexpr int kFingerCacheWays = 4;

// Replacement halves all frequency counters every kFingerAgePeriod
// replacements, so a way's retention tracks its RECENT hit rate and a
// once-hot way that went cold decays back to eviction candidacy.
inline constexpr unsigned kFingerAgePeriod = 32;

// Saturating bump of a way's frequency counter (called on every probe hit
// and in-place refresh).
inline void finger_freq_bump(std::uint8_t& freq) noexcept {
  if (freq != 0xff) ++freq;
}

// Victim selection over a way array: least-frequently-hit with aging
// (GCLOCK). Prefers an empty way (`is_empty(way)`); otherwise picks the
// way with the smallest `freq` counter, scanning from `hand` so ties
// rotate. New ways are inserted with freq == 0 — the next replacement
// evicts them unless they earn a hit first — which is what lets a skewed
// key stream keep its hot set resident: pure recency (plain clock) cannot,
// because under a zipf tail the hand circles faster than even the hottest
// key recurs, while here cold one-shot entries are recycled through a
// de-facto probation way and the accumulated counters of the hot ways are
// never disturbed by miss traffic.
template <typename Way, typename EmptyFn>
int finger_victim_pick(Way* ways, int n, unsigned& hand, unsigned& ticks,
                       EmptyFn&& is_empty) noexcept {
  for (int i = 0; i < n; ++i)
    if (is_empty(ways[i])) return i;
  if (++ticks >= kFingerAgePeriod) {
    ticks = 0;
    for (int i = 0; i < n; ++i) ways[i].freq >>= 1;
  }
  int victim = static_cast<int>(hand) % n;
  for (int off = 1; off < n; ++off) {
    const int i = (static_cast<int>(hand) + off) % n;
    if (ways[i].freq < ways[victim].freq) victim = i;
  }
  hand = static_cast<unsigned>((victim + 1) % n);
  return victim;
}

// Direct-mapped thread-local slot array for a structure's Slot type. Each
// distinct Slot type (one per structure template instantiation) gets its
// own array; instances hash into it by id. A collision between two live
// instances merely evicts (the id check turns the stale entry into a miss).
// (Distinct from kFingerCacheWays: this is how many INSTANCES of a
// structure type share a thread's storage, not the per-instance cache
// associativity.)
inline constexpr std::size_t kFingerTlsSlots = 8;

template <typename Slot>
Slot& tls_finger_slot(std::uint64_t instance) noexcept {
  thread_local Slot slots[kFingerTlsSlots] = {};
  return slots[instance & (kFingerTlsSlots - 1)];
}

}  // namespace lf::sync
