// FRListRC — the paper's linked list under Valois-style reference counting.
//
// Section 5 suggests Valois's reference counting, "applicable to both our
// linked lists and our skip lists, because there are no cycles among the
// physically deleted nodes". This class implements that suggestion for the
// list: the same flag/mark/backlink algorithm as FRList, with node lifetime
// managed by per-node reference counts instead of epochs. The steps of
// Figures 3-5, SearchFrom included, are fr::Core's (fr_core.h); the
// counting protocol and the type-stable arena are rc::Core's
// (fr_rc_core.h, where the scheme is described). This file keeps the
// list's finger entry/save.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "lf/chaos/chaos.h"
#include "lf/core/fr_rc_core.h"
#include "lf/instrument/counters.h"
#include "lf/sync/finger.h"

namespace lf {

namespace rc {
template <typename Key, typename T>
struct ListNode : NodeBase<ListNode<Key, T>, Key, T> {};
}  // namespace rc

// Searches start from the thread-local finger cache (sync/finger.h). Unlike
// the epoch variant, validity is not proven with an epoch token: a saved
// finger is re-acquired by taking a count on the node and checking a
// per-node reuse stamp (rc::Core::finger_try_hold).
template <typename Key, typename T = Key, typename Compare = std::less<Key>>
class FRListRC
    : private rc::Core<FRListRC<Key, T, Compare>, rc::ListNode<Key, T>, Key,
                       T, Compare, fr::kListSites> {
 public:
  using key_type = Key;
  using mapped_type = T;
  using key_compare = Compare;
  using Node = rc::ListNode<Key, T>;

 private:
  using Core = rc::Core<FRListRC, Node, Key, T, Compare, fr::kListSites>;
  using View = typename Core::View;
  using InsertResult = typename Core::InsertResult;
  friend Core;
  friend typename Core::FrCore;

  using Core::abandon;
  using Core::acquire;
  using Core::allocate;
  using Core::comp_;
  using Core::delete_node;
  using Core::finger_try_hold;
  using Core::insert_node;
  using Core::release;
  using Core::walk_backlinks;

 public:
  using typename Core::ValidationReport;
  using Core::arena_count;
  using Core::for_each;
  using Core::free_count;
  using Core::size;
  using Core::validate_accounting;

  FRListRC() {
    head_ = allocate(Node::Kind::kHead, Key{}, T{});
    tail_ = allocate(Node::Kind::kTail, Key{}, T{});
    head_->succ.store_unsynchronized(View{tail_, false, false});
    tail_->refct.fetch_add(1, std::memory_order_relaxed);  // head's link
  }

  // ---- dictionary operations (FRList algorithm + count discipline) -----

  bool insert(const Key& k, T value) {
    auto [prev, next] =
        this->template search_right<true>(k, finger_entry<true>(k));
    save_finger(prev, next);
    bool inserted = false;
    if (!node_eq(prev, k, comp_)) {
      Node* node = allocate(Node::Kind::kInterior, k, std::move(value));
      auto [last_prev, result] = insert_node(node, prev, next);
      release(last_prev);
      inserted = result == InsertResult::kInserted;
      if (inserted) {
        release(node);  // drop the creator reference
      } else {
        abandon(node);  // never linked, nobody else has it
      }
    }
    release(prev);
    release(next);
    stats::tls().op_insert.inc();
    return inserted;
  }

  bool erase(const Key& k) {
    auto [prev, del] =
        this->template search_right<false>(k, finger_entry<false>(k));
    save_finger(prev, del);
    const bool erased = node_eq(del, k, comp_) && delete_node(prev, del);
    release(prev);
    release(del);
    stats::tls().op_erase.inc();
    return erased;
  }

  std::optional<T> find(const Key& k) const {
    auto [curr, next] =
        this->template search_right<true>(k, finger_entry<true>(k));
    save_finger(curr, next);
    std::optional<T> out;
    if (node_eq(curr, k, comp_)) out.emplace(curr->value);
    release(curr);
    release(next);
    stats::tls().op_search.inc();
    return out;
  }

  bool contains(const Key& k) const { return find(k).has_value(); }

  std::vector<Key> keys() const {
    std::vector<Key> out;
    for_each([&](const Key& k, const T&) { out.push_back(k); });
    return out;
  }

  // ---- diagnostics ------------------------------------------------------

  // The paper's INV 1-5 at a quiescent point (fr::Core::validate_level).
  ValidationReport validate() const {
    ValidationReport rep;
    this->validate_level(head_, rep,
                         [](const Node*) -> const char* { return nullptr; });
    return rep;
  }

  // Quiescent-only invariant check: the count of every linked node equals
  // the number of fields referencing it (no thread refs at quiescence, and
  // every unlinked node recycled): its one incoming link, for the tail at
  // least one.
  bool validate_counts() const {
    for (const Node* p = head_->succ.load().right;; p = p->succ.load().right) {
      const std::uint64_t have =
          p->refct.load(std::memory_order_acquire) & rc::kCountMask;
      if (p->kind == Node::Kind::kTail) return have >= 1;
      if (have != 1) return false;
    }
  }

 private:
  std::span<Node* const> level_heads() const { return {&head_, 1}; }

  // ---- finger (search hint) layer -----------------------------------------

  // The shared way cache (sync/finger.h). Each way's proof is the node's
  // reuse stamp at save time. The cached bracket keys are trusted only
  // after a successful finger_try_hold with an equal stamp, which proves
  // the same incarnation (hence the same key) — see finger_entry.
  using FingerCache =
      sync::FingerCache<Node, Key, chaos::Site::kListFingerReplace>;

  // Counted start node for a top-level search: a validated way from the
  // finger cache, or the head. The returned reference is consumed by
  // search_right.
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

  Node* head_;
  Node* tail_;
  const std::uint64_t finger_id_ = sync::next_finger_instance();
};

}  // namespace lf
