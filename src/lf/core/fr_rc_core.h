// The counting layer under FRListRC and FRSkipListRC: Valois-style
// reference counting (Valois PODC'95, with the Michael & Scott TR-599
// corrections) for the paper's flag/mark/backlink steps.
//
// Section 5: "We have not explicitly incorporated a memory management
// technique, but a possible approach is to use Valois's reference counting
// method [10, 17], which is applicable to both our linked lists and our
// skip lists, because there are no cycles among the physically deleted
// nodes."  The algorithm stays the same, so the steps of Figures 3-5 are
// fr::Core's (fr_core.h), which this class derives from: it shadows only
// the reference points listed there with their counted versions, and adds
// the count word, the type-stable arena and its free list. A structure
// keeps only what differs: its node's extra links, its finger and FRListRC
// its search (FRSkipListRC's are fr::SkipCore's, fr_skip_core.h).
//
// Scheme:
//   * A node's count = (# succ/backlink fields storing a pointer to it)
//     + (# other counted links the node type owns: the skip list's `below`
//     and `tower_root`) + (# live thread-held references) + (in-flight
//     SafeRead ghost pairs).
//   * SafeRead(field): read pointer, increment its count, re-validate the
//     field still holds it (otherwise undo and retry). Because nodes live
//     in a TYPE-STABLE arena (recycled through a free list, never returned
//     to the OS while the structure lives), the increment may touch a
//     recycled node; the validation step rejects it and the undo
//     re-balances.
//   * Link transitions adjust counts at their C&S:
//       - insert C&S (prev: next -> node): +1 node, counted BEFORE the
//         C&S and rolled back if it fails. (The new node->next link
//         inherits the count of the removed prev->next link.)
//       - physical-deletion C&S (prev: del -> next): +1 next, -1 del.
//       - backlink C&S (null -> prev): +1 prev; set-once, losers roll back.
//       - mark/flag C&S: pointer unchanged, no count traffic.
//   * Release to zero frees the node: its stored links are released (no
//     cycles among deleted nodes, so this terminates) and the node is
//     recycled. An IN-FREELIST bit in the count word — set atomically with
//     the dying 1 -> 0 transition — keeps late SafeRead ghost pairs on
//     recycled nodes from double-freeing, and lets the finger layer reject
//     a dead hint without any field to re-validate.
//
// Trade-offs vs the epoch default (quantified in experiment E9): every
// traversal hop pays shared RMWs on node counts, the known cost that made
// later literature prefer epochs/hazard pointers — but memory is bounded
// at all times (nodes are reusable the instant they are unreachable), with
// no grace periods and no per-thread registries.
//
// The free list itself is mutex-protected (Valois used IBM tag-versioned
// freelists, which need a double-width CAS); the lock sits only on the
// allocate/recycle path, never on the traversal/recovery paths this
// repository studies. Documented in DESIGN.md as part of the substitution.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <utility>

#include "lf/core/fr_core.h"
#include "lf/instrument/counters.h"
#include "lf/sync/succ_field.h"

namespace lf::rc {

// Count word layout: bit 63 = "node is in the free list"; low bits are the
// reference count proper.
inline constexpr std::uint64_t kFreeBit = 1ULL << 63;
inline constexpr std::uint64_t kCountMask = kFreeBit - 1;

// The fields every counted node carries. `Node` derives from it (so the
// links are typed Node*) and may add fields. The per-node hook
//
//   template <typename Fn> void for_each_extra_link(Fn&& fn) const;
//
// calls `fn` on every counted link the node owns besides succ and
// backlink; the core drops those references when the node dies. The
// default owns none.
template <typename Node, typename Key, typename T>
struct NodeBase {
  enum class Kind : unsigned char { kHead, kInterior, kTail };

  Kind kind = Kind::kInterior;
  Key key{};
  T value{};
  sync::SuccField<Node> succ;
  std::atomic<Node*> backlink{nullptr};
  std::atomic<std::uint64_t> refct{0};
  // Incarnation counter, bumped once per recycle() before the node can be
  // reallocated. A finger saved as (node, stamp) names one incarnation:
  // an equal stamp on a held node proves the node was never recycled in
  // between, so its key (and backlink chain) are still the saved ones.
  std::atomic<std::uint64_t> stamp{0};
  Node* arena_next = nullptr;  // allocation registry (destructor sweep)
  Node* free_next = nullptr;   // free-list link; the release cascade's stack

  template <typename Fn>
  void for_each_extra_link(Fn&&) const {}
};

// CRTP base over fr::Core. Besides fr::Core's structure hooks (its
// search_right must consume the reference on curr and return held results),
// `Derived` provides, reachable from both cores (it befriends them):
//
//   std::span<Node* const> level_heads() const;
//     the head sentinel of every level, level 1 first.
//
// Every method is const with mutable arena state, so const searches
// (find, size) can count and release.
template <typename Derived, typename Node, typename Key, typename T,
          typename Compare, fr::Sites kSites>
class Core : public fr::Core<Derived, Node, Key, Compare, kSites> {
 public:
  using FrCore = fr::Core<Derived, Node, Key, Compare, kSites>;
  using typename FrCore::View;

  Core() : FrCore(Compare{}) {}

  // Quiescent destruction: every node ever allocated is in the arena
  // registry; free them wholesale regardless of count state.
  ~Core() {
    Node* n = arena_head_;
    while (n != nullptr) {
      Node* next = n->arena_next;
      delete n;
      n = next;
    }
  }

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  // ---- level-1 walk ---------------------------------------------------------

  // Visits (key, value) of every regular node in key order; weakly
  // consistent under concurrency.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    Node* curr = acquire(this->derived().level_heads().front());
    Node* next = safe_read_succ(curr);
    while (next->kind != Node::Kind::kTail) {
      if (!next->succ.load().mark) fn(next->key, next->value);
      Node* after = safe_read_succ(next);
      release(curr);
      curr = next;
      next = after;
    }
    release(curr);
    release(next);
  }

  // ---- diagnostics --------------------------------------------------------

  // Nodes currently waiting in the free list (recycled, reusable).
  std::size_t free_count() const {
    std::lock_guard lock(free_mu_);
    return free_count_;
  }

  // Total nodes ever allocated from the OS (arena size).
  std::size_t arena_count() const {
    std::lock_guard lock(free_mu_);
    return arena_count_;
  }

  // Quiescent full accounting: allocated == recycled + linked + sentinels
  // (one head per level plus the shared tail).
  bool validate_accounting() const {
    const std::span<Node* const> heads = this->derived().level_heads();
    std::size_t linked = 0;
    for (Node* head : heads) {
      for (Node* p = head->succ.load().right; p->kind != Node::Kind::kTail;
           p = p->succ.load().right) {
        ++linked;
      }
    }
    std::lock_guard lock(free_mu_);
    return arena_count_ == free_count_ + linked + heads.size() + 1;
  }

  // ---- arena / free list --------------------------------------------------

  // A node holding one creator reference. `init` writes the node type's
  // own fields; like every field, they are written before a recycled
  // node's free bit clears.
  template <typename Init>
  Node* allocate(typename Node::Kind kind, Key k, T v, Init&& init) const {
    {
      std::lock_guard lock(free_mu_);
      if (free_head_ != nullptr) {
        Node* n = free_head_;
        free_head_ = n->free_next;
        --free_count_;
        n->kind = kind;
        n->key = std::move(k);
        n->value = std::move(v);
        n->succ.store_unsynchronized(View{nullptr, false, false});
        n->backlink.store(nullptr, std::memory_order_relaxed);
        n->free_next = nullptr;
        init(n);
        // Creator reference; fetch_add (not store) so in-flight ghost
        // pairs on the recycled node stay balanced. The free bit is cleared
        // only after the fields are written: a stale finger_try_hold whose
        // RMW sees it clear synchronizes with the fetch_and, so release()'s
        // reads of `kind` and the links cannot race the writes above. While
        // the bit is set nothing reads them.
        n->refct.fetch_add(1, std::memory_order_acq_rel);
        n->refct.fetch_and(~kFreeBit, std::memory_order_acq_rel);
        return n;
      }
    }
    Node* n = new Node;
    n->kind = kind;
    n->key = std::move(k);
    n->value = std::move(v);
    init(n);
    n->refct.store(1, std::memory_order_relaxed);  // creator reference
    std::lock_guard lock(free_mu_);
    n->arena_next = arena_head_;
    arena_head_ = n;
    ++arena_count_;
    return n;
  }

  Node* allocate(typename Node::Kind kind, Key k, T v) const {
    return allocate(kind, std::move(k), std::move(v), [](Node*) {});
  }

  void recycle(Node* n) const {
    stats::tls().node_retired.inc();
    stats::tls().node_freed.inc();  // immediately reusable: freed now
    // kFreeBit was set by the dying transition in release(). Bump the reuse
    // stamp before the node enters the free list (and so before allocate()
    // can hand it out): any finger saved on this incarnation can then never
    // validate again — finger_try_hold's refct RMW synchronizes with
    // allocate()'s, making this increment visible to its stamp check.
    n->stamp.fetch_add(1, std::memory_order_release);
    std::lock_guard lock(free_mu_);
    n->free_next = free_head_;
    free_head_ = n;
    ++free_count_;
  }

  // ---- reference counting -------------------------------------------------

  // Take an extra thread reference on a node we already safely hold (or a
  // sentinel, which is never freed).
  Node* acquire(Node* p) const {
    p->refct.fetch_add(1, std::memory_order_acq_rel);
    return p;
  }

  // Valois SafeRead on a successor field: returns a counted reference to
  // the field's current target.
  // Forced inline: it is every counted hop's read. Left to GCC it was
  // outlined from FRSkipListRC's descent, erase, insert and try_flag, so
  // each hop paid a call (tools/fn_diff.py on bench_reclamation).
  [[gnu::always_inline]] Node* safe_read_succ(Node* source) const {
    for (;;) {
      Node* p = source->succ.load().right;
      p->refct.fetch_add(1, std::memory_order_acq_rel);
      if (source->succ.load().right == p) return p;
      release(p);  // field moved on: undo the ghost increment
    }
  }

  Node* safe_read_backlink(Node* source) const {
    for (;;) {
      Node* p = source->backlink.load(std::memory_order_acquire);
      if (p == nullptr) return nullptr;
      p->refct.fetch_add(1, std::memory_order_acq_rel);
      if (source->backlink.load(std::memory_order_acquire) == p) return p;
      release(p);
    }
  }

  // Drop one reference (null is a no-op); the releaser that takes the
  // count to zero frees the node's outgoing links and recycles it. The
  // common case — the count stays above zero — is one C&S. A dead node
  // belongs to its releaser alone until recycle() pushes it onto the free
  // list, so chained frees (e.g. a run of deleted nodes) are stacked
  // through the dead nodes' own free_next links: iterative, and no
  // allocation even then.
  void release(Node* p) const {
    if (p == nullptr || !drop(p)) return;
    p->free_next = nullptr;
    Node* dead = p;
    while (dead != nullptr) {
      Node* n = dead;
      dead = n->free_next;
      auto release_link = [&](Node* link) {
        if (link == nullptr || !drop(link)) return;
        link->free_next = dead;
        dead = link;
      };
      release_link(n->succ.load().right);
      release_link(n->backlink.load(std::memory_order_acquire));
      n->for_each_extra_link(release_link);
      recycle(n);
    }
  }

  // Drop a never-linked node: its stored succ was never counted.
  void abandon(Node* node) const {
    node->succ.store_unsynchronized(View{nullptr, false, false});
    release(node);
  }

  // Try to re-acquire a counted reference on a saved finger. Returns true
  // holding one new reference on `n`; false holding nothing.
  //
  // Soundness: the fetch_add is an RMW, so it observes the latest count
  // word. kFreeBit clear and count nonzero therefore prove the node is not
  // (and is not becoming) freelisted — the dying transition in release()
  // sets the bit atomically — and our increment now blocks any future dying
  // transition, so the node stays live while held. The stamp is read after
  // that RMW: if the node was recycled and re-allocated since the save, the
  // hold's RMW reads allocate()'s release-RMWs on the same word, which
  // happen after recycle()'s stamp bump, so the mismatch is visible and the
  // stale finger is rejected. An equal stamp proves zero recycles since the
  // save: same incarnation, same key, backlink chain intact.
  bool finger_try_hold(Node* n, std::uint64_t stamp) const {
    const std::uint64_t old = n->refct.fetch_add(1, std::memory_order_acq_rel);
    if ((old & kFreeBit) != 0 || (old & kCountMask) == 0) {
      // Freelisted: undo through release(), like a failed SafeRead. While
      // the node stays freelisted the bit rules out a dying transition; if
      // allocate() re-used it meanwhile, our increment is now a counted
      // reference whose release may be the last one. (A raw decrement
      // could leave that node at count zero, never recycled.)
      release(n);
      return false;
    }
    if (n->stamp.load(std::memory_order_acquire) != stamp) {
      release(n);  // live node, but a later incarnation
      return false;
    }
    return true;
  }

  // Counted nodes need no reclamation guard.
  struct NoGuard {};
  NoGuard guard() const { return {}; }

  // ---- the finger's validity proof (sync/finger.h) -------------------------

  // A way's proof is its node's reuse stamp at save time. Every way may be
  // probed: fr::Core::finger_enter holds the winner through finger_hold,
  // whose equal stamp proves the cached keys retroactively.
  struct StampProof {
    template <typename Way>
    bool usable(const Way&) const { return true; }
    std::uint64_t of(const Node* n) const {
      return n->stamp.load(std::memory_order_acquire);
    }
  };
  StampProof finger_proof() const { return {}; }

  template <typename Way>
  bool finger_hold(Way& way) const {
    return finger_try_hold(way.node, way.proof);
  }

  // ---- fr::Core's reference points, counted --------------------------------

  // The set-once backlink C&S: pre-count prev; a loser rolls back (every
  // helper's value is the same prev).
  void set_backlink(Node* del, Node* prev) const {
    if (del->backlink.load(std::memory_order_acquire) != nullptr) return;
    acquire(prev);
    Node* expected = nullptr;
    if (!del->backlink.compare_exchange_strong(expected, prev,
                                               std::memory_order_acq_rel)) {
      release(prev);
    }
  }

  // The pre-count before an insert or unlink C&S creates a link to n, and
  // its roll-back when the C&S fails.
  void count_link(Node* n) const { acquire(n); }
  void uncount_link(Node* n) const { release(n); }

  // The unlink C&S removed the prev->del link.
  void on_unlinked(Node* del) const { release(del); }

  // A C&S saw prev's successor word flagged, but the View's right pointer
  // is not a counted reference: re-read it safely, and help only if the
  // flag still stands for that successor.
  void help_flagged_seen(Node* prev, View, stats::StepCounters& c) const {
    if (!prev->succ.load().flag) return;
    Node* del = safe_read_succ(prev);
    if (prev->succ.load() == View{del, false, true})
      this->help_flagged(prev, del, c);
    release(del);
  }

 private:
  // Drop one reference on n. True iff that was the last one on an interior
  // node, which is then dead and owned by the caller.
  //
  // The decrement is a C&S loop (not fetch_sub) so the dying transition —
  // count 1 -> 0 — sets the IN-FREELIST bit in the SAME atomic step. A
  // count word of zero-without-the-bit must never be observable: a SafeRead
  // ghost increment could revive it to a plausible nonzero count, and
  // finger_try_hold (which has no field to re-validate against, unlike
  // SafeRead) would mistake the dying node for a live one. Acquire loads:
  // reading `kind` must not race allocate()'s writes, which its free-bit
  // fetch_and publishes. Sentinels and freelisted nodes never die here.
  static bool drop(Node* n) {
    std::uint64_t old = n->refct.load(std::memory_order_acquire);
    for (;;) {
      assert((old & kCountMask) != 0 && "refcount underflow");
      const bool dying = old == 1 && n->kind == Node::Kind::kInterior;
      if (n->refct.compare_exchange_weak(old, dying ? kFreeBit : old - 1,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
        return dying;
      }
    }
  }

  mutable std::mutex free_mu_;
  mutable Node* free_head_ = nullptr;
  mutable Node* arena_head_ = nullptr;
  mutable std::size_t free_count_ = 0;
  mutable std::size_t arena_count_ = 0;
};

}  // namespace lf::rc
