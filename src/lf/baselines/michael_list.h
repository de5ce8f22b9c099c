// MichaelList — M. M. Michael, "High Performance Dynamic Lock-Free Hash
// Tables and List-Based Sets", SPAA 2002 (the paper's reference [8]).
//
// Michael's list keeps Harris's logical-deletion mark but restructures the
// traversal so that at most THREE node references are live at any moment
// (prev, curr, next) and every marked node is unlinked one-at-a-time before
// the traversal moves past it. That discipline is what makes the algorithm
// compatible with hazard-pointer reclamation (reference [9]) — unlike
// Harris's search, which can traverse long marked chains it does not own.
//
// Two variants are provided:
//   MichaelList<Key,T,Compare,Reclaimer>  — guard-based (epoch by default).
//   MichaelListHP<Key,T,Compare>          — the full hazard-pointer protocol
//                                           on HazardDomain (protect +
//                                           validate + restart), exercising
//                                           the SMR substrate end to end.
//
// Like Harris's list, interference causes a restart from the head (counted
// in stats::restart); this list exists as the second baseline the paper
// compares against analytically in Sections 1-2.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <tuple>
#include <utility>

#include "lf/core/key_order.h"
#include "lf/instrument/counters.h"
#include "lf/reclaim/epoch.h"
#include "lf/reclaim/hazard.h"
#include "lf/reclaim/reclaimer.h"
#include "lf/sync/succ_field.h"

namespace lf {

template <typename Key, typename T = Key, typename Compare = std::less<Key>,
          typename Reclaimer = reclaim::EpochReclaimer>
class MichaelList {
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
    Succ succ;

    Node(Kind k, Key key_arg, T value_arg)
        : kind(k), key(std::move(key_arg)), value(std::move(value_arg)) {}
  };

  MichaelList() {
    head_ = new Node(Node::Kind::kHead, Key{}, T{});
    tail_ = new Node(Node::Kind::kTail, Key{}, T{});
    head_->succ.store_unsynchronized(View{tail_, false, false});
  }

  ~MichaelList() {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->succ.load().right;
      delete n;
      n = next;
    }
  }

  MichaelList(const MichaelList&) = delete;
  MichaelList& operator=(const MichaelList&) = delete;

  bool insert(const Key& k, T value) {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    Node* prev;
    Node* curr;
    bool found;
    std::tie(prev, curr, found) = search(k);
    if (found) {
      // Duplicate detected before allocating: zero allocator traffic.
      stats::tls().op_insert.inc();
      return false;
    }
    Node* node = new Node(Node::Kind::kInterior, k, std::move(value));
    for (;;) {
      node->succ.store_unsynchronized(View{curr, false, false});
      const View result =
          prev->succ.cas(View{curr, false, false}, View{node, false, false});
      if (result == View{curr, false, false}) {
        stats::tls().insert_cas.inc();
        stats::tls().op_insert.inc();
        return true;
      }
      stats::tls().restart.inc();
      std::tie(prev, curr, found) = search(k);
      if (found) {
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
      auto [prev, curr, found] = search(k);
      if (!found) break;
      const View curr_succ = curr->succ.load();
      if (curr_succ.mark) {
        stats::tls().restart.inc();
        continue;
      }
      const View result = curr->succ.cas(
          View{curr_succ.right, false, false},
          View{curr_succ.right, true, false});
      if (result != View{curr_succ.right, false, false}) {
        stats::tls().restart.inc();
        continue;
      }
      stats::tls().mark_cas.inc();
      erased = true;
      const View unlink = prev->succ.cas(View{curr, false, false},
                                         View{curr_succ.right, false, false});
      if (unlink == View{curr, false, false}) {
        stats::tls().pdelete_cas.inc();
        reclaimer_.retire(curr);
      } else {
        search(k);  // clean up
      }
      break;
    }
    stats::tls().op_erase.inc();
    return erased;
  }

  std::optional<T> find(const Key& k) const {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    auto [prev, curr, found] = search(k);
    (void)prev;
    std::optional<T> out;
    if (found) out.emplace(curr->value);
    stats::tls().op_search.inc();
    return out;
  }

  bool contains(const Key& k) const {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    auto [prev, curr, found] = search(k);
    (void)prev;
    (void)curr;
    stats::tls().op_search.inc();
    return found;
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

 private:
  // Michael's Find: returns (prev, curr, found) with prev unmarked,
  // prev.right == curr, prev.key < k <= curr.key; unlinks each marked node
  // it meets, restarting from head when any C&S fails.
  std::tuple<Node*, Node*, bool> search(const Key& k) const {
    auto& c = stats::tls();
  try_again:
    Node* prev = head_;
    Node* curr = prev->succ.load().right;
    for (;;) {
      if (curr->kind == Node::Kind::kTail) return {prev, curr, false};
      const View curr_succ = curr->succ.load();
      if (curr_succ.mark) {
        const View result = prev->succ.cas(
            View{curr, false, false}, View{curr_succ.right, false, false});
        if (result != View{curr, false, false}) {
          c.restart.inc();
          goto try_again;
        }
        c.pdelete_cas.inc();
        reclaimer_.retire(curr);
        curr = curr_succ.right;
        c.next_update.inc();
        continue;
      }
      if (!node_lt(curr, k, comp_))
        return {prev, curr, node_eq(curr, k, comp_)};
      prev = curr;
      curr = curr_succ.right;
      c.curr_update.inc();
    }
  }

  Compare comp_;
  mutable Reclaimer reclaimer_;
  Node* head_;
  Node* tail_;
};

// ---------------------------------------------------------------------------
// MichaelListHP: the same algorithm with Michael's full hazard-pointer
// protocol. Slots: 0 = curr, 1 = prev. Each advance publishes the new curr,
// then validates that prev still links to it (which also proves curr was
// not retired before the publication became visible).
// ---------------------------------------------------------------------------
template <typename Key, typename T = Key, typename Compare = std::less<Key>>
class MichaelListHP {
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
    Succ succ;

    Node(Kind k, Key key_arg, T value_arg)
        : kind(k), key(std::move(key_arg)), value(std::move(value_arg)) {}
  };

  explicit MichaelListHP(reclaim::HazardDomain& domain =
                             reclaim::HazardDomain::global())
      : domain_(domain) {
    head_ = new Node(Node::Kind::kHead, Key{}, T{});
    tail_ = new Node(Node::Kind::kTail, Key{}, T{});
    head_->succ.store_unsynchronized(View{tail_, false, false});
  }

  ~MichaelListHP() {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->succ.load().right;
      delete n;
      n = next;
    }
  }

  MichaelListHP(const MichaelListHP&) = delete;
  MichaelListHP& operator=(const MichaelListHP&) = delete;

  bool insert(const Key& k, T value) {
    auto& hp = domain_.slots();
    Node* prev;
    Node* curr;
    bool found;
    std::tie(prev, curr, found) = search(k, hp);
    if (found) {
      // Duplicate detected before allocating: zero allocator traffic.
      hp.clear_all();
      stats::tls().op_insert.inc();
      return false;
    }
    Node* node = new Node(Node::Kind::kInterior, k, std::move(value));
    for (;;) {
      node->succ.store_unsynchronized(View{curr, false, false});
      const View result =
          prev->succ.cas(View{curr, false, false}, View{node, false, false});
      if (result == View{curr, false, false}) {
        stats::tls().insert_cas.inc();
        hp.clear_all();
        stats::tls().op_insert.inc();
        return true;
      }
      stats::tls().restart.inc();
      std::tie(prev, curr, found) = search(k, hp);
      if (found) {
        delete node;  // never published; lost to a mid-retry duplicate
        hp.clear_all();
        stats::tls().op_insert.inc();
        return false;
      }
    }
  }

  bool erase(const Key& k) {
    auto& hp = domain_.slots();
    bool erased = false;
    for (;;) {
      auto [prev, curr, found] = search(k, hp);
      if (!found) break;
      const View curr_succ = curr->succ.load();
      if (curr_succ.mark) {
        stats::tls().restart.inc();
        continue;
      }
      const View result = curr->succ.cas(
          View{curr_succ.right, false, false},
          View{curr_succ.right, true, false});
      if (result != View{curr_succ.right, false, false}) {
        stats::tls().restart.inc();
        continue;
      }
      stats::tls().mark_cas.inc();
      erased = true;
      const View unlink = prev->succ.cas(View{curr, false, false},
                                         View{curr_succ.right, false, false});
      if (unlink == View{curr, false, false}) {
        stats::tls().pdelete_cas.inc();
        domain_.retire(curr);
      } else {
        search(k, hp);
      }
      break;
    }
    hp.clear_all();
    stats::tls().op_erase.inc();
    return erased;
  }

  std::optional<T> find(const Key& k) const {
    auto& hp = domain_.slots();
    auto [prev, curr, found] = search(k, hp);
    (void)prev;
    std::optional<T> out;
    if (found) out.emplace(curr->value);
    hp.clear_all();
    stats::tls().op_search.inc();
    return out;
  }

  bool contains(const Key& k) const { return find(k).has_value(); }

  std::size_t size() const {
    // Size is only meaningful at quiescence for this diagnostic helper.
    std::size_t n = 0;
    for (Node* p = head_->succ.load().right; p->kind != Node::Kind::kTail;
         p = p->succ.load().right) {
      if (!p->succ.load().mark) ++n;
    }
    return n;
  }

 private:
  // Hazard-slot usage: the traversal keeps two published references live
  // (0 = curr, 1 = prev); the third of Michael's three references (next) is
  // protected transitively by the validation that prev still links to curr.
  static_assert(2 <= reclaim::HazardDomain::kMichaelListSlots,
                "MichaelListHP publishes slots 0 and 1; they must lie "
                "inside the Michael-list slot budget");

  // Find with hazard protection. On return, slot 0 protects curr and
  // slot 1 protects prev, so the caller's C&S operates on protected nodes.
  std::tuple<Node*, Node*, bool> search(
      const Key& k, reclaim::HazardDomain::ThreadSlots& hp) const {
    auto& c = stats::tls();
  try_again:
    Node* prev = head_;
    hp.set(1, prev);  // head is never retired; published for uniformity
    Node* curr = prev->succ.load().right;
    for (;;) {
      // Publish curr, then validate it is still prev's unmarked successor
      // — the audited publish-then-revalidate step (ThreadSlots::protect;
      // fence discipline documented in reclaim/hazard.h). Success proves
      // curr was not retired before our publication, so it is safe to
      // dereference until we clear the slot.
      if (!hp.protect(0, curr, [&]() -> Node* {
            const View check = prev->succ.load();
            return check.mark ? nullptr : check.right;
          })) {
        c.restart.inc();
        goto try_again;
      }
      if (curr->kind == Node::Kind::kTail) return {prev, curr, false};
      const View curr_succ = curr->succ.load();
      if (curr_succ.mark) {
        const View result = prev->succ.cas(
            View{curr, false, false}, View{curr_succ.right, false, false});
        if (result != View{curr, false, false}) {
          c.restart.inc();
          goto try_again;
        }
        c.pdelete_cas.inc();
        domain_.retire(curr);
        curr = curr_succ.right;
        c.next_update.inc();
        continue;
      }
      if (!node_lt(curr, k, comp_))
        return {prev, curr, node_eq(curr, k, comp_)};
      prev = curr;
      // Not a protect() site: curr is already protected by slot 0 at this
      // moment, so copying it into slot 1 transfers an existing guarantee —
      // there is no publish/reload race to revalidate.
      hp.set(1, prev);
      curr = curr_succ.right;
      c.curr_update.inc();
    }
  }

  Compare comp_;
  reclaim::HazardDomain& domain_;
  Node* head_;
  Node* tail_;
};

}  // namespace lf
