// RestartSkipList — a lock-free skip list in the Fraser / Harris style
// (the paper's reference [2]; also the textbook algorithm of Herlihy &
// Shavit). It models the design the paper contrasts with in Section 4:
// "Fraser's algorithms use Harris's design style where an operation
// restarts if it detects interference from a concurrent operation."
//
// Architecture: Pugh's original — ONE node per key with an array of
// (next pointer, mark bit) successor fields, one per level. Deletion marks
// the node's levels top-down and lets find() snip marked nodes; ANY C&S
// failure during find() restarts the whole descent from the top of the
// head tower (counted in stats::restart). No backlinks, no flags, no
// recovery — the contrast for experiments E4/E7. E12 forces failures at its
// C&S sites (chaos kBase*) to measure restart-from-the-top recovery against
// FRSkipList's backlink recovery.
//
// Reclamation: a node unlinked at level 0 can remain linked at upper
// levels, so per-unlink retirement is unsound for ANY grace-period scheme.
// Production designs solve this with careful link-count tracking; as a
// baseline, this implementation keeps an allocation registry (a Treiber
// stack of every node ever allocated) and frees everything in the
// destructor. Memory is reclaimed at teardown, not during the run — noted
// in DESIGN.md and irrelevant to the step/throughput comparisons it is
// used for.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "lf/chaos/chaos.h"
#include "lf/core/key_order.h"
#include "lf/instrument/counters.h"
#include "lf/sync/succ_field.h"
#include "lf/util/random.h"

namespace lf {

template <typename Key, typename T = Key, typename Compare = std::less<Key>>
class RestartSkipList {
  static constexpr int kMaxLevel = 24;

 public:
  using key_type = Key;
  using mapped_type = T;
  using key_compare = Compare;

  struct Node;

 private:
  using Succ = sync::SuccField<Node>;
  using View = sync::SuccView<Node>;

 public:
  static constexpr int kMaxTowerHeight = kMaxLevel;

  struct alignas(8) Node {
    enum class Kind : unsigned char { kHead, kInterior, kTail };

    Kind kind;
    int height;  // levels 0..height-1 in use
    Key key;
    T value;
    Succ next[kMaxLevel];
    Node* alloc_next = nullptr;  // allocation-registry link

    Node(Kind k, int h, Key key_arg, T value_arg)
        : kind(k),
          height(h),
          key(std::move(key_arg)),
          value(std::move(value_arg)) {}
  };

  RestartSkipList() {
    head_ = new Node(Node::Kind::kHead, kMaxLevel, Key{}, T{});
    tail_ = new Node(Node::Kind::kTail, kMaxLevel, Key{}, T{});
    for (int lv = 0; lv < kMaxLevel; ++lv)
      head_->next[lv].store_unsynchronized(View{tail_, false, false});
  }

  ~RestartSkipList() {
    Node* n = alloc_head_.load(std::memory_order_acquire);
    while (n != nullptr) {
      Node* next = n->alloc_next;
      delete n;
      n = next;
    }
    delete head_;
    delete tail_;
  }

  RestartSkipList(const RestartSkipList&) = delete;
  RestartSkipList& operator=(const RestartSkipList&) = delete;

  bool insert(const Key& k, T value) {
    auto& c = stats::tls();
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    if (find(k, preds, succs)) {
      stats::tls().op_insert.inc();
      return false;  // duplicate detected before allocating: zero allocs
    }
    const int h = thread_ordinal_rng<RestartSkipList>(0xd1b54a32d192ed03ULL)
                      .tower_height(kMaxLevel);
    Node* node = new Node(Node::Kind::kInterior, h, k, std::move(value));
    for (;;) {
      for (int lv = 0; lv < h; ++lv)
        node->next[lv].store_unsynchronized(View{succs[lv], false, false});
      // Link level 0: the linearization point.
      const View res =
          chaos::cas(chaos::Site::kBaseInsertCas, preds[0]->next[0],
                     View{succs[0], false, false}, View{node, false, false});
      if (res != View{succs[0], false, false}) {
        c.restart.inc();
        if (find(k, preds, succs)) {
          delete node;  // never published; lost to a mid-retry duplicate
          stats::tls().op_insert.inc();
          return false;
        }
        continue;
      }
      c.insert_cas.inc();
      // Published: hand the node to the allocation registry (reclaimed at
      // destruction; this baseline deliberately leaks until then).
      register_allocation(node);
      // Link the upper levels, re-finding on interference.
      for (int lv = 1; lv < h; ++lv) {
        for (;;) {
          const View mine = node->next[lv].load();
          if (mine.mark) goto done;  // concurrent remove reached this level
          Node* succ = succs[lv];
          if (mine.right != succ) {
            const View redirect = node->next[lv].cas(
                View{mine.right, false, false}, View{succ, false, false});
            if (redirect != View{mine.right, false, false}) continue;
          }
          const View link =
              chaos::cas(chaos::Site::kBaseInsertCas, preds[lv]->next[lv],
                         View{succ, false, false}, View{node, false, false});
          if (link == View{succ, false, false}) {
            c.insert_cas.inc();
            break;
          }
          c.restart.inc();
          if (!find(k, preds, succs) || succs[0] != node) goto done;
        }
      }
    done:
      stats::tls().op_insert.inc();
      return true;
    }
  }

  bool erase(const Key& k) {
    auto& c = stats::tls();
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    bool erased = false;
    if (find(k, preds, succs)) {
      Node* victim = succs[0];
      // Mark the upper levels top-down.
      for (int lv = victim->height - 1; lv >= 1; --lv) {
        View v = victim->next[lv].load();
        while (!v.mark) {
          victim->next[lv].cas(View{v.right, false, false},
                               View{v.right, true, false});
          v = victim->next[lv].load();
        }
      }
      // Mark level 0: whoever lands this C&S owns the deletion.
      for (;;) {
        const View v = victim->next[0].load();
        if (v.mark) break;  // a concurrent erase won
        const View res =
            chaos::cas(chaos::Site::kBaseMarkCas, victim->next[0],
                       View{v.right, false, false}, View{v.right, true, false});
        if (res == View{v.right, false, false}) {
          c.mark_cas.inc();
          erased = true;
          find(k, preds, succs);  // snip the marked node everywhere
          break;
        }
      }
    }
    stats::tls().op_erase.inc();
    return erased;
  }

  std::optional<T> find(const Key& k) const {
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    std::optional<T> out;
    if (find(k, preds, succs)) out.emplace(succs[0]->value);
    stats::tls().op_search.inc();
    return out;
  }

  bool contains(const Key& k) const {
    // Wait-free-style read-only traversal (Herlihy-Shavit contains): skips
    // marked nodes without snipping, so it never restarts.
    auto& c = stats::tls();
    Node* pred = head_;
    Node* curr = nullptr;
    for (int lv = kMaxLevel - 1; lv >= 0; --lv) {
      curr = pred->next[lv].load().right;
      for (;;) {
        View curr_succ = curr->next[lv].load();
        while (curr_succ.mark) {
          curr = curr_succ.right;
          curr_succ = curr->next[lv].load();
          c.next_update.inc();
        }
        if (node_lt(curr, k, comp_)) {
          pred = curr;
          curr = curr_succ.right;
          c.curr_update.inc();
        } else {
          break;
        }
      }
    }
    stats::tls().op_search.inc();
    return node_eq(curr, k, comp_) && !curr->next[0].load().mark;
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (Node* p = head_->next[0].load().right; p->kind != Node::Kind::kTail;
         p = p->next[0].load().right) {
      if (!p->next[0].load().mark) ++n;
    }
    return n;
  }

 private:
  void register_allocation(Node* node) const {
    Node* old = alloc_head_.load(std::memory_order_relaxed);
    do {
      node->alloc_next = old;
    } while (!alloc_head_.compare_exchange_weak(old, node,
                                                std::memory_order_release,
                                                std::memory_order_relaxed));
  }

  // The Herlihy-Shavit find: descends the head tower computing preds/succs
  // at every level, snipping marked nodes; restarts the whole descent on
  // any failed snip. Returns whether an unmarked level-0 match was found.
  bool find(const Key& k, Node** preds, Node** succs) const {
    auto& c = stats::tls();
  retry:
    Node* pred = head_;
    for (int lv = kMaxLevel - 1; lv >= 0; --lv) {
      Node* curr = pred->next[lv].load().right;
      for (;;) {
        View curr_succ = curr->next[lv].load();
        while (curr_succ.mark) {
          const View res =
              chaos::cas(chaos::Site::kBaseUnlinkCas, pred->next[lv],
                         View{curr, false, false},
                         View{curr_succ.right, false, false});
          if (res != View{curr, false, false}) {
            c.restart.inc();
            goto retry;
          }
          c.pdelete_cas.inc();
          curr = curr_succ.right;
          curr_succ = curr->next[lv].load();
          c.next_update.inc();
        }
        if (node_lt(curr, k, comp_)) {
          pred = curr;
          curr = curr_succ.right;
          c.curr_update.inc();
        } else {
          break;
        }
      }
      preds[lv] = pred;
      succs[lv] = curr;
    }
    return node_eq(succs[0], k, comp_);
  }

  Compare comp_;
  Node* head_;
  Node* tail_;
  mutable std::atomic<Node*> alloc_head_{nullptr};
};

}  // namespace lf
