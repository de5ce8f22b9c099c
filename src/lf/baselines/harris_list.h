// HarrisList — T. Harris, "A Pragmatic Implementation of Non-Blocking
// Linked-Lists", DISC 2001 (the paper's reference [3] and its main
// comparison target).
//
// Each node's successor field carries a single MARK bit: deletion marks the
// node (logical deletion, freezing its successor field) and then unlinks it
// (physical deletion). The crucial behavioural difference from FRList is
// what happens on interference: "When this happens, Harris's algorithms
// require P1 to restart from the beginning of the list, which can lead to
// poor performance" (Section 3.1). Every such restart is counted in
// stats::restart, and the paper's Ω(n̄·c̄) adversarial execution against
// this list is reproduced by bench_adversarial (E1) through the same
// two-phase insertion hooks FRList exposes. Its C&S sites (chaos kBase*)
// let E12 force failures, so restart-based recovery can be compared against
// FRList's backlink recovery under the same injected fault train.
//
// Reclamation: a node (or chain of marked nodes) is retired by the thread
// whose C&S physically unlinked it. Safe under epoch reclamation; NOT safe
// under hazard pointers (Harris's traversal can hold pointers to freed
// chains — that is exactly the problem Michael's variant fixes).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <tuple>
#include <utility>

#include "lf/chaos/chaos.h"
#include "lf/core/key_order.h"
#include "lf/instrument/counters.h"
#include "lf/reclaim/epoch.h"
#include "lf/reclaim/reclaimer.h"
#include "lf/sync/succ_field.h"

namespace lf {

template <typename Key, typename T = Key, typename Compare = std::less<Key>,
          typename Reclaimer = reclaim::EpochReclaimer>
class HarrisList {
 public:
  using key_type = Key;
  using mapped_type = T;
  using key_compare = Compare;

  struct Node;

 private:
  using Succ = sync::SuccField<Node>;
  using View = sync::SuccView<Node>;

 public:
  struct alignas(8) Node {
    enum class Kind : unsigned char { kHead, kInterior, kTail };

    Kind kind;
    Key key;
    T value;
    Succ succ;  // flag bit unused; mark bit only

    Node(Kind k, Key key_arg, T value_arg)
        : kind(k), key(std::move(key_arg)), value(std::move(value_arg)) {}
  };

  HarrisList() {
    head_ = new Node(Node::Kind::kHead, Key{}, T{});
    tail_ = new Node(Node::Kind::kTail, Key{}, T{});
    head_->succ.store_unsynchronized(View{tail_, false, false});
  }

  ~HarrisList() {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->succ.load().right;
      delete n;
      n = next;
    }
  }

  HarrisList(const HarrisList&) = delete;
  HarrisList& operator=(const HarrisList&) = delete;

  bool insert(const Key& k, T value) {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    Node* left;
    Node* right;
    std::tie(left, right) = search(k);
    if (node_eq(right, k, comp_)) {
      // Duplicate detected before allocating: this path costs no
      // allocator traffic at all.
      stats::tls().op_insert.inc();
      return false;
    }
    Node* node = new Node(Node::Kind::kInterior, k, std::move(value));
    for (;;) {
      node->succ.store_unsynchronized(View{right, false, false});
      const View result =
          chaos::cas(chaos::Site::kBaseInsertCas, left->succ,
                     View{right, false, false}, View{node, false, false});
      if (result == View{right, false, false}) {
        stats::tls().insert_cas.inc();
        stats::tls().op_insert.inc();
        return true;
      }
      stats::tls().restart.inc();  // Harris: restart from the head
      std::tie(left, right) = search(k);
      if (node_eq(right, k, comp_)) {
        delete node;  // never published; lost to a mid-retry duplicate
        stats::tls().op_insert.inc();
        return false;
      }
    }
  }

  bool erase(const Key& k) {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    bool erased = false;
    for (;;) {
      auto [left, right] = search(k);
      if (!node_eq(right, k, comp_)) break;  // not found
      const View right_succ = right->succ.load();
      if (right_succ.mark) {
        stats::tls().restart.inc();
        continue;
      }
      // Logical deletion: mark right.
      const View result = chaos::cas(
          chaos::Site::kBaseMarkCas, right->succ,
          View{right_succ.right, false, false},
          View{right_succ.right, true, false});
      if (result != View{right_succ.right, false, false}) {
        stats::tls().restart.inc();
        continue;
      }
      stats::tls().mark_cas.inc();
      erased = true;
      // Physical deletion: try once; on failure let a search clean up.
      const View unlink =
          chaos::cas(chaos::Site::kBaseUnlinkCas, left->succ,
                     View{right, false, false},
                     View{right_succ.right, false, false});
      if (unlink == View{right, false, false}) {
        stats::tls().pdelete_cas.inc();
        reclaimer_.retire(right);
      } else {
        search(k);
      }
      break;
    }
    stats::tls().op_erase.inc();
    return erased;
  }

  std::optional<T> find(const Key& k) const {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    auto [left, right] = search(k);
    (void)left;
    std::optional<T> out;
    if (node_eq(right, k, comp_)) out.emplace(right->value);
    stats::tls().op_search.inc();
    return out;
  }

  bool contains(const Key& k) const {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    auto [left, right] = search(k);
    (void)left;
    stats::tls().op_search.inc();
    return node_eq(right, k, comp_);
  }

  std::size_t size() const {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    std::size_t n = 0;
    for (Node* p = head_->succ.load().right; p->kind != Node::Kind::kTail;
         p = p->succ.load().right) {
      if (!p->succ.load().mark) ++n;
    }
    return n;
  }

  // ---- Two-phase insertion hooks (benchmark adversary, E1) -------------
  // Mirror of FRList::insert_locate/insert_complete so the Section 3.1
  // schedule can be applied to both lists identically.
  struct InsertCursor {
    Key key{};
    Node* left = nullptr;
    Node* right = nullptr;
    Node* node = nullptr;
  };

  bool insert_locate(const Key& k, T value, InsertCursor& cur) {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    auto [left, right] = search(k);
    if (node_eq(right, k, comp_)) return false;
    cur.key = k;
    cur.left = left;
    cur.right = right;
    cur.node = new Node(Node::Kind::kInterior, k, std::move(value));
    return true;
  }

  bool insert_complete(InsertCursor& cur) {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    Node* left = cur.left;
    Node* right = cur.right;
    bool inserted = false;
    for (;;) {
      cur.node->succ.store_unsynchronized(View{right, false, false});
      const View result =
          chaos::cas(chaos::Site::kBaseInsertCas, left->succ,
                     View{right, false, false}, View{cur.node, false, false});
      if (result == View{right, false, false}) {
        stats::tls().insert_cas.inc();
        inserted = true;
        break;
      }
      stats::tls().restart.inc();  // the whole search repeats from head
      std::tie(left, right) = search(cur.key);
      if (node_eq(right, cur.key, comp_)) {
        delete cur.node;
        break;
      }
    }
    cur.node = nullptr;
    stats::tls().op_insert.inc();
    return inserted;
  }

  // One iteration of the insert retry loop (mirror of
  // FRList::insert_try_once): one C&S attempt; on failure, Harris's
  // recovery is a full restart — a complete search from the head.
  enum class TryResult { kInserted, kRetry, kDuplicate };

  TryResult insert_try_once(InsertCursor& cur) {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    auto& c = stats::tls();
    cur.node->succ.store_unsynchronized(View{cur.right, false, false});
    const View result =
        chaos::cas(chaos::Site::kBaseInsertCas, cur.left->succ,
                   View{cur.right, false, false}, View{cur.node, false, false});
    if (result == View{cur.right, false, false}) {
      c.insert_cas.inc();
      c.op_insert.inc();
      cur.node = nullptr;
      return TryResult::kInserted;
    }
    c.restart.inc();  // recovery = restart: re-search the whole list
    auto [left, right] = search(cur.key);
    if (node_eq(right, cur.key, comp_)) {
      delete cur.node;
      cur.node = nullptr;
      c.op_insert.inc();
      return TryResult::kDuplicate;
    }
    cur.left = left;
    cur.right = right;
    return TryResult::kRetry;
  }

  Node* head() const noexcept { return head_; }

 private:
  // Harris's search: returns adjacent (left, right) with left unmarked,
  // left.key < k <= right.key, unlinking any marked chain between them.
  // Restarts from the head whenever a C&S fails or adjacency is lost.
  std::pair<Node*, Node*> search(const Key& k) const {
    auto& c = stats::tls();
    for (;;) {
      // Phase 1: walk from head, remembering the last unmarked node.
      Node* left = head_;
      View left_succ = left->succ.load();
      Node* t = head_;
      View t_succ = left_succ;
      Node* right;
      for (;;) {
        if (!t_succ.mark) {
          left = t;
          left_succ = t_succ;
        }
        t = t_succ.right;
        c.curr_update.inc();
        if (t->kind == Node::Kind::kTail) break;
        t_succ = t->succ.load();
        if (!t_succ.mark && !node_lt(t, k, comp_)) break;
      }
      right = t;
      // Phase 2: already adjacent?
      if (left_succ.right == right) {
        if (right->kind != Node::Kind::kTail && right->succ.load().mark) {
          c.restart.inc();
          continue;  // right got marked under us
        }
        return {left, right};
      }
      // Phase 3: unlink the marked chain between left and right.
      const View result = chaos::cas(chaos::Site::kBaseUnlinkCas, left->succ,
                                     left_succ, View{right, false, false});
      if (result == left_succ) {
        c.pdelete_cas.inc();
        // The winner retires the whole unlinked chain.
        Node* dead = left_succ.right;
        while (dead != right) {
          Node* next = dead->succ.load().right;
          reclaimer_.retire(dead);
          dead = next;
        }
        if (right->kind != Node::Kind::kTail && right->succ.load().mark) {
          c.restart.inc();
          continue;
        }
        return {left, right};
      }
      c.restart.inc();
    }
  }

  Compare comp_;
  mutable Reclaimer reclaimer_;
  Node* head_;
  Node* tail_;
};

}  // namespace lf
