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
// Hazard pointers get no policy: a token cannot outlive the pin it was
// taken under, and per-pointer validation proves nothing on a backlink walk
// (DESIGN.md §10), so the FR structures reclaim with epochs or leak, and
// the hazard domain serves only the MichaelListHP baseline.
//
// The reference-counted variants (core/*_rc.h) do not use tokens; they
// validate by re-acquiring a count on the node and checking a per-node
// reuse stamp (see fr_rc_core.h::finger_try_hold).
//
// The way cache itself — way layout, slot claiming, the deref-free probe
// and LFU replacement — is written once, as FingerCache below. FRList,
// FRListRC and FRSkipListRC (one way set per fingered level) all use it,
// and all enter a way set through one routine, fr::Core::finger_enter
// (hold, validate, backlink walk, hit or release); each keeps only its
// validity proof.
//
// Storage: caches live in thread_local direct-mapped slot arrays, keyed by
// a monotonically increasing per-structure instance id. Ids are never
// reused, so a slot left over from a destroyed structure can never be
// mistaken for the current one (the id check fails without touching the
// stale pointer).
//
// FRList, FRListRC and FRSkipListRC always carry the layer; none has an
// off switch.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "lf/chaos/chaos.h"
#include "lf/reclaim/epoch.h"
#include "lf/reclaim/leaky.h"

namespace lf::sync {

// Set associativity of the per-(thread, instance) finger cache: how many
// bracket-keyed ways each structure (or skip-list level) keeps.
inline constexpr int kFingerCacheWays = 4;

// Reclaimer-specific validity proof for FRList. token() is called while the
// calling thread holds the reclaimer's guard, both when saving a finger and
// when attempting to reuse one; a saved entry is dereferenceable iff its
// saved token equals the current one.
//
// Only the in-tree reclaimers have a policy: FRList does not compile with
// any other.
template <typename Reclaimer>
struct FingerPolicy;

template <>
struct FingerPolicy<reclaim::LeakyReclaimer> {
  static std::uint64_t token(reclaim::LeakyReclaimer&) noexcept {
    return 1;  // nodes are immortal: every saved finger stays valid
  }
};

template <>
struct FingerPolicy<reclaim::EpochReclaimer> {
  static std::uint64_t token(reclaim::EpochReclaimer& r) {
    // +1 keeps 0 free as the "empty entry" value even if a domain ever
    // started at epoch 0 (the default domain starts at kBuckets).
    return r.pinned_epoch() + 1;
  }
};

// Monotonic id for finger-bearing structure instances. Never reused, so
// slot contents from a destroyed (or address-recycled) instance fail the id
// check instead of being dereferenced.
inline std::uint64_t next_finger_instance() noexcept {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

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
// (GCLOCK). Prefers an empty way (null `node`); otherwise picks the way
// with the smallest `freq` counter, scanning from `hand` so ties rotate.
// New ways are inserted with freq == 0 — the next replacement evicts them
// unless they earn a hit first — which is what lets a skewed key stream
// keep its hot set resident: pure recency (plain clock) cannot, because
// under a zipf tail the hand circles faster than even the hottest key
// recurs, while here cold one-shot entries are recycled through a de-facto
// probation way and the accumulated counters of the hot ways are never
// disturbed by miss traffic.
template <typename Way>
int finger_victim_pick(Way* ways, int n, unsigned& hand,
                       unsigned& ticks) noexcept {
  for (int i = 0; i < n; ++i)
    if (ways[i].node == nullptr) return i;
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

// Direct-mapped thread-local slot count per cache type: how many INSTANCES
// of a structure type share a thread's storage (not the per-instance cache
// associativity). A collision between two live instances merely evicts
// (the id check turns the stale entry into a miss).
inline constexpr std::size_t kFingerTlsSlots = 8;

// One thread's finger cache for one structure instance: `Sets` independent
// way sets (the lists use one; FRSkipListRC one per fingered level), each
// holding kFingerCacheWays ways. A way remembers the node n1 a search
// returned together with the bracket of keys it serves ([n1.key, n2.key],
// cached so probing never touches a node) and the structure's validity
// proof. Nothing here dereferences a cached node: validating a probed way
// (token, or count + stamp) and recovering a marked one through
// its backlinks is fr::Core::finger_enter's job. Node must have `kind`
// (Kind::kHead / kTail sentinels) and `key`; the save reads them from
// nodes the caller holds.
//
// kReplaceSite is the chaos injection point that fires before a
// replacement picks its victim.
template <typename Node, typename Key, chaos::Site kReplaceSite, int Sets = 1>
class FingerCache {
 public:
  static constexpr int kWays = kFingerCacheWays;

  struct Way {
    Node* node = nullptr;       // null: empty, or killed by the structure
    std::uint64_t proof = 0;    // reclaimer token (FRList) or reuse stamp
    Key key{};                  // bracket low end; meaningful unless is_head
    Key succ_key{};             // bracket high end; meaningful unless succ_tail
    bool is_head = false;       // head sentinel compares below every key
    bool succ_tail = false;     // tail sentinel compares above every key
    std::uint8_t freq = 0;      // hit counter (aged by finger_victim_pick)
  };

  // Way indices a probe found, -1 for none; see Set::probe.
  struct Probe {
    int bracket = -1;
    int fallback = -1;
  };

  class Set {
   public:
    // Deref-free probe for a search toward k, reading only cached fields.
    // A way qualifies if its key is left of k: key <= k when `closed`,
    // key < k otherwise; a head way is left of every key. `bracket` is the
    // qualifying way whose bracket also contains k (k <= succ_key);
    // `fallback` the qualifying way whose bracket does not. Each picks the
    // tightest candidate, i.e. the largest key, so any keyed way beats a
    // head way. Empty ways and ways `usable` rejects are skipped.
    template <typename Compare, typename Usable>
    Probe probe(const Key& k, bool closed, const Compare& comp,
                Usable&& usable) const {
      auto tighter = [&](int i, int best) {  // way i has the larger key
        return best < 0 ||
               (!way[i].is_head &&
                (way[best].is_head || comp(way[best].key, way[i].key)));
      };
      int bracket = -1, fallback = -1;
      for (int i = 0; i < kWays; ++i) {
        const Way& e = way[i];
        if (e.node == nullptr || !usable(e)) continue;
        if (!(e.is_head || (closed ? !comp(k, e.key) : comp(e.key, k))))
          continue;  // wrong side of k
        if (e.succ_tail || !comp(e.succ_key, k)) {  // k <= succ_key
          if (tighter(i, bracket)) bracket = i;
        } else if (tighter(i, fallback)) {
          fallback = i;
        }
      }
      return {bracket, fallback};
    }

    template <typename Compare>
    Probe probe(const Key& k, bool closed, const Compare& comp) const {
      return probe(k, closed, comp, [](const Way&) { return true; });
    }

    // A probed way that validated served a search.
    void hit(int i) noexcept { finger_freq_bump(way[i].freq); }

    // Caches `node` (held by the caller) with its successor `succ` under
    // `proof`, and returns the way used. A way already caching `node` is
    // refreshed in place; failing that, way `prefer` when the caller names
    // one (FRList's served bracket, whose new bracket is a subrange of the
    // old one); failing that, the finger_victim_pick victim is replaced.
    // A refreshed way keeps earning frequency; a brand-new way starts at
    // zero — the next replacement's prime victim unless it earns a hit
    // first — so one-shot cold keys recycle through a de-facto probation
    // way instead of eroding the retained hot set.
    int save(Node* node, const Node* succ, std::uint64_t proof,
             int prefer = -1) {
      int w = prefer;
      for (int i = 0; i < kWays; ++i)
        if (way[i].node == node) { w = i; break; }
      const bool refresh = w >= 0;
      if (!refresh) {
#if LF_CHAOS
        chaos::point(kReplaceSite);
#endif
        w = finger_victim_pick(way, kWays, hand_, ticks_);
      }
      Way& e = way[w];
      e.node = node;
      e.proof = proof;
      e.is_head = node->kind == Node::Kind::kHead;
      if (!e.is_head) e.key = node->key;  // cache-warm reads
      e.succ_tail = succ->kind == Node::Kind::kTail;
      if (!e.succ_tail) e.succ_key = succ->key;
      if (refresh) finger_freq_bump(e.freq);
      else e.freq = 0;
      return w;
    }

    Way way[kWays] = {};

   private:
    unsigned hand_ = 0;   // tie rotation for victim selection
    unsigned ticks_ = 0;  // replacements since the last aging pass
  };

  // This thread's cache slot for `instance`. The slot is direct-mapped, so
  // it may still hold another instance's ways.
  static FingerCache& of(std::uint64_t instance) noexcept {
    thread_local FingerCache slots[kFingerTlsSlots] = {};
    return slots[instance & (kFingerTlsSlots - 1)];
  }

  // Set `s` if the slot holds `instance`'s ways, else nullptr (a miss).
  Set* find(std::uint64_t instance, int s = 0) noexcept {
    return instance_ == instance ? &sets_[s] : nullptr;
  }

  // Set `s`, first claiming the slot for `instance` if it holds another
  // instance's ways: those must never be probed as ours, so all are dropped.
  Set& claim(std::uint64_t instance, int s = 0) {
    if (instance_ != instance) {
      *this = FingerCache{};
      instance_ = instance;
    }
    return sets_[s];
  }

 private:
  std::uint64_t instance_ = 0;
  Set sets_[Sets] = {};
};

}  // namespace lf::sync
