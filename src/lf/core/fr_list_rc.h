// FRListRC — the paper's linked list under Valois-style reference counting.
//
// Section 5: "We have not explicitly incorporated a memory management
// technique, but a possible approach is to use Valois's reference counting
// method [10, 17], which is applicable to both our linked lists and our
// skip lists, because there are no cycles among the physically deleted
// nodes."  This class implements exactly that suggestion for the list: the
// same flag/mark/backlink algorithm as FRList, with node lifetime managed
// by per-node reference counts (Valois PODC'95, with the Michael & Scott
// TR-599 corrections) instead of epochs.
//
// Scheme:
//   * A node's count = (# succ/backlink fields storing a pointer to it)
//     + (# live thread-held references) + (in-flight SafeRead ghost pairs).
//   * SafeRead(field): read pointer, increment its count, re-validate the
//     field still holds it (otherwise undo and retry). Because nodes live
//     in a TYPE-STABLE arena (recycled through a free list, never returned
//     to the OS while the list lives), the increment may touch a recycled
//     node; the validation step rejects it and the undo re-balances.
//   * Link transitions adjust counts at their C&S:
//       - insert C&S (prev: next -> node): +1 node, counted BEFORE the
//         C&S and rolled back if it fails. (The new node->next link
//         inherits the count of the removed prev->next link.)
//       - physical-deletion C&S (prev: del -> next): +1 next, -1 del.
//       - backlink C&S (null -> prev): +1 prev; set-once, losers roll back.
//       - mark/flag C&S: pointer unchanged, no count traffic.
//   * Release to zero frees the node: its stored succ/backlink targets are
//     released (no cycles among deleted nodes, so this terminates) and the
//     node is recycled. An IN-FREELIST bit in the count word — set
//     atomically with the dying 1 -> 0 transition — keeps late SafeRead
//     ghost pairs on recycled nodes from double-freeing, and lets the
//     finger layer reject a dead hint without any field to re-validate.
//
// Trade-offs vs the epoch default (quantified in experiment E9): every
// traversal hop pays an RMW pair on shared counters, the known cost that
// made later literature prefer epochs/hazard pointers — but memory is
// bounded at all times (nodes are reusable the instant they are
// unreachable), with no grace periods and no per-thread registries.
//
// The free list itself is mutex-protected (Valois used IBM tag-versioned
// freelists, which need a double-width CAS); the lock sits only on the
// allocate/recycle path, never on the traversal/recovery paths this
// repository studies. Documented in DESIGN.md as part of the substitution.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "lf/chaos/chaos.h"
#include "lf/instrument/counters.h"
#include "lf/sync/finger.h"
#include "lf/sync/succ_field.h"

namespace lf {

// Searches start from the thread-local finger cache (sync/finger.h). Unlike
// the epoch variant, validity is not proven with an epoch token: a saved
// finger is re-acquired by taking a count on the node and checking a
// per-node reuse stamp (finger_try_hold).
template <typename Key, typename T = Key, typename Compare = std::less<Key>>
class FRListRC {
 public:
  using key_type = Key;
  using mapped_type = T;
  using key_compare = Compare;

  struct Node;

 private:
  using Succ = sync::SuccField<Node>;
  using View = sync::SuccView<Node>;

  // Count word layout: bit 63 = "node is in the free list"; low bits are
  // the reference count proper.
  static constexpr std::uint64_t kFreeBit = 1ULL << 63;
  static constexpr std::uint64_t kCountMask = kFreeBit - 1;

 public:
  struct alignas(8) Node {
    enum class Kind : unsigned char { kHead, kInterior, kTail };

    Kind kind = Kind::kInterior;
    Key key{};
    T value{};
    Succ succ;
    std::atomic<Node*> backlink{nullptr};
    std::atomic<std::uint64_t> refct{0};
    // Incarnation counter, bumped once per recycle() before the node can be
    // reallocated. A finger saved as (node, stamp) names one incarnation:
    // an equal stamp on a held node proves the node was never recycled in
    // between, so its key (and backlink chain) are still the saved ones.
    std::atomic<std::uint64_t> stamp{0};
    Node* arena_next = nullptr;  // allocation registry (destructor sweep)
    Node* free_next = nullptr;   // free-list link (guarded by free_mu_)
  };

  FRListRC() {
    head_ = allocate(Node::Kind::kHead, Key{}, T{});
    tail_ = allocate(Node::Kind::kTail, Key{}, T{});
    head_->succ.store_unsynchronized(View{tail_, false, false});
    tail_->refct.fetch_add(1, std::memory_order_relaxed);  // head's link
  }

  // Quiescent destruction: every node ever allocated is in the arena
  // registry; free them wholesale regardless of count state.
  ~FRListRC() {
    Node* n = arena_head_;
    while (n != nullptr) {
      Node* next = n->arena_next;
      delete n;
      n = next;
    }
  }

  FRListRC(const FRListRC&) = delete;
  FRListRC& operator=(const FRListRC&) = delete;

  // ---- dictionary operations (FRList algorithm + count discipline) -----

  bool insert(const Key& k, T value) {
    auto [prev, next] = search_from<true>(k, finger_entry<true>(k));
    save_finger(prev, next);
    if (node_eq(prev, k)) {
      release(prev);
      release(next);
      stats::tls().op_insert.inc();
      return false;
    }
    Node* node = allocate(Node::Kind::kInterior, k, std::move(value));
    bool inserted = false;
    for (;;) {
      const View prev_succ = prev->succ.load();
      if (prev_succ.flag) {
        help_flagged_at(prev);
      } else {
        node->succ.store_unsynchronized(View{next, false, false});
        // Pre-count the would-be prev->node link: counted only after the
        // C&S, the linked node would carry just the creator reference, and
        // a concurrent traverse + delete + release could recycle it while
        // we still hold it. node->next inherits prev->next's count.
        node->refct.fetch_add(1, std::memory_order_acq_rel);
        const View result =
            prev->succ.cas(View{next, false, false}, View{node, false, false});
        if (result == View{next, false, false}) {
          stats::tls().insert_cas.inc();
          inserted = true;
          break;
        }
        // Roll back; the creator reference keeps the count above zero.
        node->refct.fetch_sub(1, std::memory_order_acq_rel);
        if (result.flag && !result.mark) help_flagged_at(prev);
        walk_backlinks(prev);
      }
      Node* start = prev;  // transfer
      release(next);
      std::tie(prev, next) = search_from<true>(k, start);
      if (node_eq(prev, k)) {
        // Abandon the private node: zero its (never-counted) stored succ
        // so the zero-path doesn't decrement its target, then drop the
        // creator reference — count 1 -> 0 recycles it.
        node->succ.store_unsynchronized(View{nullptr, false, false});
        release(node);
        break;
      }
    }
    release(prev);
    release(next);
    if (inserted) release(node);  // drop the creator reference
    stats::tls().op_insert.inc();
    return inserted;
  }

  bool erase(const Key& k) {
    auto [prev, del] = search_from<false>(k, finger_entry<false>(k));
    save_finger(prev, del);
    bool erased = false;
    if (node_eq(del, k)) {
      auto [flag_prev, result] = try_flag(prev, del);  // consumes prev
      prev = flag_prev;
      if (prev != nullptr) help_flagged(prev, del);
      erased = result;
    }
    if (prev != nullptr) release(prev);
    release(del);
    stats::tls().op_erase.inc();
    return erased;
  }

  std::optional<T> find(const Key& k) const {
    auto [curr, next] = search_from<true>(k, finger_entry<true>(k));
    save_finger(curr, next);
    std::optional<T> out;
    if (node_eq(curr, k)) out.emplace(curr->value);
    release(curr);
    release(next);
    stats::tls().op_search.inc();
    return out;
  }

  bool contains(const Key& k) const { return find(k).has_value(); }

  std::size_t size() const {
    std::size_t n = 0;
    Node* curr = acquire(head_);
    Node* next = safe_read_succ(curr);
    while (next->kind != Node::Kind::kTail) {
      if (!next->succ.load().mark) ++n;
      Node* after = safe_read_succ(next);
      release(curr);
      curr = next;
      next = after;
    }
    release(curr);
    release(next);
    return n;
  }

  // Visits (key, value) of every regular node in key order; weakly
  // consistent under concurrency.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    Node* curr = acquire(head_);
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

  std::vector<Key> keys() const {
    std::vector<Key> out;
    for_each([&](const Key& k, const T&) { out.push_back(k); });
    return out;
  }

  // ---- diagnostics ------------------------------------------------------

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

  // Quiescent-only invariant check: the count of every linked node equals
  // the number of fields referencing it (no thread refs at quiescence).
  bool validate_counts() const {
    // Expected counts: links from succ fields of list nodes + backlinks of
    // freed-but-unreachable nodes are gone at quiescence, so: each linked
    // node has exactly one predecessor link; tail also has head's initial
    // artificial link accounted via its +1.
    Node* p = head_;
    while (p->kind != Node::Kind::kTail) {
      Node* next = p->succ.load().right;
      const std::uint64_t expect = 1;  // the single incoming link
      const std::uint64_t have =
          next->refct.load(std::memory_order_acquire) & kCountMask;
      if (next->kind == Node::Kind::kTail) {
        if (have < 1) return false;  // head's artificial +1 at minimum
      } else if (have != expect) {
        return false;
      }
      p = next;
    }
    return true;
  }

 private:
  // ---- reference counting core ------------------------------------------

  // Take an extra thread reference on a node we already safely hold (or a
  // sentinel, which is never freed).
  Node* acquire(Node* p) const {
    p->refct.fetch_add(1, std::memory_order_acq_rel);
    return p;
  }

  // Valois SafeRead on a successor field: returns a counted reference to
  // the field's current target.
  Node* safe_read_succ(Node* source) const {
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

  // Drop one reference; the releaser that takes the count to zero frees
  // the node's outgoing links and recycles it. Iterative: chained frees
  // (e.g. a run of deleted nodes) are processed with an explicit stack.
  void release(Node* p) const {
    std::vector<Node*> pending{p};
    while (!pending.empty()) {
      Node* n = pending.back();
      pending.pop_back();
      if (n == nullptr) continue;
      // The decrement is a C&S loop (not fetch_sub) so the dying transition
      // of an interior node — count 1 -> 0 — sets the IN-FREELIST bit in
      // the SAME atomic step. A count word of zero-without-the-bit must
      // never be observable: a SafeRead ghost increment could revive it to
      // a plausible nonzero count, and finger_try_hold (which has no field
      // to re-validate against, unlike SafeRead) would mistake the dying
      // node for a live one.
      // Acquire loads: reading `kind` below must not race allocate()'s
      // writes, which its free-bit fetch_and publishes.
      std::uint64_t old = n->refct.load(std::memory_order_acquire);
      bool dying;
      for (;;) {
        assert((old & kCountMask) != 0 && "refcount underflow");
        dying = old == 1 && n->kind == Node::Kind::kInterior;
        const std::uint64_t desired = dying ? kFreeBit : old - 1;
        if (n->refct.compare_exchange_weak(old, desired,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
          break;
        }
      }
      if (!dying) continue;  // still referenced, sentinel, or in freelist
      // Count hit zero outside the free list: this releaser owns the node.
      pending.push_back(n->succ.load().right);
      pending.push_back(n->backlink.load(std::memory_order_acquire));
      recycle(n);
    }
  }

  // ---- finger (search hint) layer -----------------------------------------

  // The shared way cache (sync/finger.h). Each way's proof is the node's
  // reuse stamp at save time. The cached bracket keys are trusted only
  // after a successful finger_try_hold with an equal stamp, which proves
  // the same incarnation (hence the same key) — see finger_entry.
  using FingerCache =
      sync::FingerCache<Node, Key, chaos::Site::kListFingerReplace>;

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

  // Counted start node for a top-level search: a validated way from the
  // finger cache, or the head. The returned reference is consumed by
  // search_from.
  //
  // Only a probe winner (bracket, then fallback) pays the counted
  // finger_try_hold. An equal stamp proves the same incarnation, so the
  // cached key IS the node's key and the probe's qualification holds
  // retroactively; any hold/stamp failure kills the way and the next
  // candidate is tried.
  template <bool Closed>
  Node* finger_entry(const Key& k) const {
    auto& c = stats::tls();
    if (auto* set = FingerCache::of(finger_id_).find(finger_id_)) {
      const auto probe = set->probe(k, Closed, comp_);
      for (const int i : {probe.bracket, probe.fallback}) {
        if (i < 0) continue;
        auto& e = set->way[i];
        if (!finger_try_hold(e.node, e.proof)) {
          e.node = nullptr;  // recycled since the save: dead way
          continue;
        }
        Node* start = e.node;
        LF_CHAOS_POINT(kListFingerValidate);
        walk_backlinks(start);  // marked finger: recover leftward
        if (!start->succ.load().mark) {
          set->hit(i);
          c.finger_hit.inc();
          return start;
        }
        release(start);
      }
    }
    LF_CHAOS_POINT(kListFingerFallback);
    c.finger_miss.inc();
    return acquire(head_);
  }

  // Remember a node the caller currently holds (with its successor, for
  // the bracket) as a way of this thread's finger cache. Only raw
  // pointers, keys, and stamps are kept — no count survives the caller's
  // release — so quiescent count accounting is unaffected.
  void save_finger(Node* n, Node* succ) const {
    FingerCache::of(finger_id_).claim(finger_id_).save(
        n, succ, n->stamp.load(std::memory_order_acquire));
  }

  // ---- arena / free list --------------------------------------------------

  Node* allocate(typename Node::Kind kind, Key k, T v) const {
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
        // Creator reference; fetch_add (not store) so in-flight ghost
        // pairs on the recycled node stay balanced. The free bit is cleared
        // only after the fields are written: a stale finger_try_hold whose
        // RMW sees it clear synchronizes with the fetch_and, so release()'s
        // read of `kind` cannot race the writes above. While the bit is set
        // nothing reads them.
        n->refct.fetch_add(1, std::memory_order_acq_rel);
        n->refct.fetch_and(~kFreeBit, std::memory_order_acq_rel);
        return n;
      }
    }
    Node* n = new Node;
    n->kind = kind;
    n->key = std::move(k);
    n->value = std::move(v);
    n->refct.store(1, std::memory_order_relaxed);  // creator reference
    std::lock_guard lock(free_mu_);
    n->arena_next = arena_head_;
    arena_head_ = n;
    ++arena_count_;
    return n;
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

  // ---- ordering helpers ----------------------------------------------------

  bool node_lt(const Node* n, const Key& k) const {
    if (n->kind == Node::Kind::kHead) return true;
    if (n->kind == Node::Kind::kTail) return false;
    return comp_(n->key, k);
  }
  bool node_le(const Node* n, const Key& k) const {
    if (n->kind == Node::Kind::kHead) return true;
    if (n->kind == Node::Kind::kTail) return false;
    return !comp_(k, n->key);
  }
  bool node_eq(const Node* n, const Key& k) const {
    return n->kind == Node::Kind::kInterior && !comp_(n->key, k) &&
           !comp_(k, n->key);
  }

  // ---- FR algorithm with counted traversal --------------------------------

  // Consumes the reference on `curr`; returns counted references on both
  // results.
  template <bool Closed>
  std::pair<Node*, Node*> search_from(const Key& k, Node* curr) const {
    auto& c = stats::tls();
    auto advances = [&](const Node* n) {
      return Closed ? node_le(n, k) : node_lt(n, k);
    };
    Node* next = safe_read_succ(curr);
    while (advances(next)) {
      for (;;) {
        const View next_succ = next->succ.load();
        if (!next_succ.mark) break;
        const View curr_succ = curr->succ.load();
        if (curr_succ.mark && curr_succ.right == next) break;
        if (curr_succ.right == next) help_marked(curr, next);
        release(next);
        next = safe_read_succ(curr);
        c.next_update.inc();
      }
      if (advances(next)) {
        release(curr);
        curr = next;  // transfer the reference
        c.curr_update.inc();
        next = safe_read_succ(curr);
      }
    }
    return {curr, next};
  }

  // prev flagged, del = its successor (both counted by the caller).
  void help_marked(Node* prev, Node* del) const {
    stats::tls().help_marked.inc();
    Node* next = safe_read_succ(del);
    // Pre-count the would-be prev->next link; roll back on failure. The
    // pre-count means the link is never uncounted while live.
    next->refct.fetch_add(1, std::memory_order_acq_rel);
    const View result =
        prev->succ.cas(View{del, false, true}, View{next, false, false});
    if (result == View{del, false, true}) {
      stats::tls().pdelete_cas.inc();
      release(del);  // the prev->del link is gone
    } else {
      release(next);  // roll the pre-count back
    }
    release(next);  // traversal reference
  }

  void help_flagged(Node* prev, Node* del) const {
    stats::tls().help_flagged.inc();
    // Set-once backlink: pre-count prev, lose -> roll back.
    if (del->backlink.load(std::memory_order_acquire) == nullptr) {
      prev->refct.fetch_add(1, std::memory_order_acq_rel);
      Node* expected = nullptr;
      if (!del->backlink.compare_exchange_strong(
              expected, prev, std::memory_order_acq_rel)) {
        release(prev);  // another helper's identical value won
      }
    }
    if (!del->succ.load().mark) try_mark(del);
    help_marked(prev, del);
  }

  // Helper for "prev's successor field is flagged: help whatever deletion
  // that is" — re-reads the successor safely (a raw View.right from a
  // failed C&S is not a counted reference).
  void help_flagged_at(Node* prev) const {
    const View v = prev->succ.load();
    if (!v.flag) return;
    Node* del = safe_read_succ(prev);
    // The field may have changed between load and safe_read; only help if
    // the flag still stands for this successor.
    if (prev->succ.load() == View{del, false, true}) {
      help_flagged(prev, del);
    }
    release(del);
  }

  void try_mark(Node* del) const {
    do {
      Node* next = safe_read_succ(del);
      const View result =
          del->succ.cas(View{next, false, false}, View{next, true, false});
      if (result == View{next, false, false}) {
        stats::tls().mark_cas.inc();
      } else if (result.flag && !result.mark) {
        help_flagged_at(del);
      }
      release(next);
    } while (!del->succ.load().mark);
  }

  // Replace a counted reference to a marked node with one to the nearest
  // unmarked node along the backlink chain.
  void walk_backlinks(Node*& prev) const {
    auto& c = stats::tls();
    std::uint64_t chain = 0;
    while (prev->succ.load().mark) {
      Node* back = safe_read_backlink(prev);
      if (back == nullptr) break;  // not yet set: spin via re-check
      release(prev);
      prev = back;
      c.backlink_traversal.inc();
      ++chain;
    }
    if (chain > 0) stats::chain_hist_tls().record(chain);
  }

  // Consumes the reference on `prev`; returns a counted (prev, result) —
  // prev == nullptr means target was deleted.
  std::pair<Node*, bool> try_flag(Node* prev, Node* target) const {
    for (;;) {
      if (prev->succ.load() == View{target, false, true}) {
        return {prev, false};
      }
      const View result = prev->succ.cas(View{target, false, false},
                                         View{target, false, true});
      if (result == View{target, false, false}) {
        stats::tls().flag_cas.inc();
        return {prev, true};
      }
      if (result == View{target, false, true}) {
        return {prev, false};
      }
      walk_backlinks(prev);
      auto [new_prev, del] = search_from<false>(target->key, prev);
      if (del != target) {
        release(new_prev);
        release(del);
        return {nullptr, false};
      }
      release(del);
      prev = new_prev;
    }
  }

  Compare comp_;
  Node* head_;
  Node* tail_;
  const std::uint64_t finger_id_ = sync::next_finger_instance();

  mutable std::mutex free_mu_;
  mutable Node* free_head_ = nullptr;
  mutable Node* arena_head_ = nullptr;
  mutable std::size_t free_count_ = 0;
  mutable std::size_t arena_count_ = 0;
};

}  // namespace lf
