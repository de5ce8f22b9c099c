// FRListRC — the paper's linked list under Valois-style reference counting.
//
// Section 5 suggests Valois's reference counting, "applicable to both our
// linked lists and our skip lists, because there are no cycles among the
// physically deleted nodes". This class implements that suggestion for the
// list: the same flag/mark/backlink algorithm as FRList, with node lifetime
// managed by per-node reference counts instead of epochs. The steps of
// Figures 3-5, SearchFrom and the finger entry included, are fr::Core's
// (fr_core.h); the list operations and the finger save are fr::ListCore's
// (fr_list_core.h), shared with FRList; the counting protocol, the
// type-stable arena and the finger's counted hold are rc::Core's
// (fr_rc_core.h, where the scheme is described). This file keeps the
// node, the sentinels and the node hooks.
//
// Searches start from the thread-local finger cache (sync/finger.h). Unlike
// the epoch variant, validity is not proven with an epoch token: a saved
// finger is re-acquired by taking a count on the node and checking a
// per-node reuse stamp (rc::Core::finger_try_hold).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>

#include "lf/core/fr_list_core.h"
#include "lf/core/fr_rc_core.h"

namespace lf {

namespace rc {
template <typename Key, typename T>
struct ListNode : NodeBase<ListNode<Key, T>, Key, T> {};
}  // namespace rc

template <typename Key, typename T = Key, typename Compare = std::less<Key>>
class FRListRC
    : private fr::ListCore<FRListRC<Key, T, Compare>,
                           rc::Core<FRListRC<Key, T, Compare>,
                                    rc::ListNode<Key, T>, Key, T, Compare,
                                    fr::kListSites>> {
 public:
  using key_type = Key;
  using mapped_type = T;
  using key_compare = Compare;
  using Node = rc::ListNode<Key, T>;

 private:
  using Core = rc::Core<FRListRC, Node, Key, T, Compare, fr::kListSites>;
  using ListCore = fr::ListCore<FRListRC, Core>;
  using View = typename Core::View;
  friend Core;
  friend typename Core::FrCore;
  friend ListCore;

  using Core::allocate;

 public:
  using typename Core::ValidationReport;
  using typename ListCore::InsertStatus;
  using Core::arena_count;
  using Core::empty;
  using Core::for_each;
  using Core::free_count;
  using Core::keys;
  using Core::size;
  using Core::validate_accounting;
  using ListCore::contains;
  using ListCore::erase;
  using ListCore::find;
  using ListCore::insert;
  using ListCore::insert_checked;
  using ListCore::validate;

  FRListRC() {
    head_ = allocate(Node::Kind::kHead, Key{}, T{});
    tail_ = allocate(Node::Kind::kTail, Key{}, T{});
    head_->succ.store_unsynchronized(View{tail_, false, false});
    tail_->refct.fetch_add(1, std::memory_order_relaxed);  // head's link
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
  // The hooks of the list layer (fr_list_core.h) and of rc::Core.
  Node* head() const { return head_; }
  std::span<Node* const> level_heads() const { return {&head_, 1}; }

  Node* make_node(const Key& k, T value) const {
    return allocate(Node::Kind::kInterior, k, std::move(value));
  }
  // Never linked, nobody else has it.
  void discard_node(Node* node) const { this->abandon(node); }

  Node* head_;
  Node* tail_;
};

}  // namespace lf
