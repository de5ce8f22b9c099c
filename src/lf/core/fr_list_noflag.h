// FRListNoFlag — ablation of the paper's flag bits.
//
// Section 3.1 argues that backlinks ALONE do not give the desired
// complexity: "The problem is that long chains of backlinks can be traversed
// by the same process many times. This happens when these chains grow
// towards the right, i.e. when backlink pointers are set to marked nodes."
// The flag bit exists precisely to rule that out: a node is only marked
// while its predecessor is flagged, and a flagged node cannot be marked, so
// a backlink never targets a marked node.
//
// This variant removes the flag step. Deletion is two steps, Harris-style
// marking plus a best-effort backlink:
//
//     1. set del.backlink to the current predecessor HINT, then
//        C&S del.succ (next,0,0) -> (next,1,0)        (logical deletion)
//     2. C&S pred.succ (del,0,0) -> (next,0,0)        (physical deletion;
//        searches also unlink marked nodes they pass, as in Harris/Michael)
//
// Because nothing freezes the predecessor, the hint can itself be marked by
// the time it is followed — backlink chains may grow to the right, which is
// exactly the pathology experiment E7 measures (chain-length histograms of
// this variant vs FRList under a delete-heavy hotspot).
//
// The variant is still linearizable and lock-free (marking freezes succ
// fields exactly as in Harris's list; backlinks are a recovery accelerator,
// and walking them strictly decreases the key, so recovery terminates at an
// unmarked node or at head). It is NOT the paper's algorithm; it exists to
// demonstrate why the paper's algorithm is shaped the way it is.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <tuple>
#include <utility>

#include "lf/core/key_order.h"
#include "lf/instrument/counters.h"
#include "lf/reclaim/epoch.h"
#include "lf/reclaim/reclaimer.h"
#include "lf/sync/succ_field.h"

namespace lf {

template <typename Key, typename T = Key, typename Compare = std::less<Key>,
          typename Reclaimer = reclaim::EpochReclaimer>
class FRListNoFlag {
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
    std::atomic<Node*> backlink{nullptr};

    Node(Kind k, Key key_arg, T value_arg)
        : kind(k), key(std::move(key_arg)), value(std::move(value_arg)) {}
  };

  FRListNoFlag() {
    head_ = new Node(Node::Kind::kHead, Key{}, T{});
    tail_ = new Node(Node::Kind::kTail, Key{}, T{});
    head_->succ.store_unsynchronized(View{tail_, false, false});
  }

  ~FRListNoFlag() {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->succ.load().right;
      delete n;
      n = next;
    }
  }

  FRListNoFlag(const FRListNoFlag&) = delete;
  FRListNoFlag& operator=(const FRListNoFlag&) = delete;

  bool insert(const Key& k, T value) {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    auto [prev, next] = search_from<true>(k, head_);
    bool inserted = false;
    if (!node_eq(prev, k, comp_)) {
      Node* node = new Node(Node::Kind::kInterior, k, std::move(value));
      for (;;) {
        node->succ.store_unsynchronized(View{next, false, false});
        const View result =
            prev->succ.cas(View{next, false, false}, View{node, false, false});
        if (result == View{next, false, false}) {
          stats::tls().insert_cas.inc();
          inserted = true;
          break;
        }
        recover(prev);
        std::tie(prev, next) = search_from<true>(k, prev);
        if (node_eq(prev, k, comp_)) {
          delete node;
          break;
        }
      }
    }
    stats::tls().op_insert.inc();
    return inserted;
  }

  bool erase(const Key& k) {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    auto [prev, del] = search_from<false>(k, head_);
    bool erased = false;
    if (node_eq(del, k, comp_)) {
      // Logical deletion: publish the best-effort backlink hint, then mark.
      for (;;) {
        const View del_succ = del->succ.load();
        if (del_succ.mark) break;  // a concurrent erase won
        del->backlink.store(prev, std::memory_order_release);
        const View result = del->succ.cas(
            View{del_succ.right, false, false},
            View{del_succ.right, true, false});
        if (result == View{del_succ.right, false, false}) {
          stats::tls().mark_cas.inc();
          erased = true;
          // Best-effort physical deletion; searches clean up on failure.
          const View unlink = prev->succ.cas(View{del, false, false},
                                             View{del_succ.right, false, false});
          if (unlink == View{del, false, false}) {
            stats::tls().pdelete_cas.inc();
            reclaimer_.retire(del);
          } else {
            search_from<true>(k, head_);  // sweep to unlink
          }
          break;
        }
        // The predecessor hint may have gone stale; recover and retry.
        recover(prev);
        auto [p2, d2] = search_from<false>(k, prev);
        if (d2 != del) break;  // deleted (or replaced) concurrently
        prev = p2;
      }
    }
    stats::tls().op_erase.inc();
    return erased;
  }

  std::optional<T> find(const Key& k) const {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    auto [curr, next] = search_from<true>(k, head_);
    (void)next;
    std::optional<T> out;
    if (node_eq(curr, k, comp_)) out.emplace(curr->value);
    stats::tls().op_search.inc();
    return out;
  }

  bool contains(const Key& k) const {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    auto [curr, next] = search_from<true>(k, head_);
    (void)next;
    stats::tls().op_search.inc();
    return node_eq(curr, k, comp_);
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

  Node* head() const noexcept { return head_; }

  // ---- Two-phase insert hooks (benchmark adversary, E7) ------------------
  // Mirror of FRList::insert_locate / insert_complete.
  struct InsertCursor {
    Key key{};
    Node* prev = nullptr;
    Node* next = nullptr;
    Node* node = nullptr;
  };

  bool insert_locate(const Key& k, T value, InsertCursor& cur) {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    auto [prev, next] = search_from<true>(k, head_);
    if (node_eq(prev, k, comp_)) return false;
    cur.key = k;
    cur.prev = prev;
    cur.next = next;
    cur.node = new Node(Node::Kind::kInterior, k, std::move(value));
    return true;
  }

  bool insert_complete(InsertCursor& cur) {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    Node* prev = cur.prev;
    Node* next = cur.next;
    bool inserted = false;
    for (;;) {
      cur.node->succ.store_unsynchronized(View{next, false, false});
      const View result = prev->succ.cas(View{next, false, false},
                                         View{cur.node, false, false});
      if (result == View{next, false, false}) {
        stats::tls().insert_cas.inc();
        inserted = true;
        break;
      }
      recover(prev);
      std::tie(prev, next) = search_from<true>(cur.key, prev);
      if (node_eq(prev, cur.key, comp_)) {
        delete cur.node;
        break;
      }
    }
    cur.node = nullptr;
    stats::tls().op_insert.inc();
    return inserted;
  }

  // ---- Two-phase erase hooks (benchmark adversary, E7) -------------------
  //
  // The pathology the paper's flag bit eliminates is a backlink being SET
  // to an already-marked node ("chains grow towards the right"). In this
  // flagless variant that happens whenever the predecessor hint captured
  // at locate time goes stale before the marking step. These hooks expose
  // that seam so the E7 driver can build maximal stale-hint chains
  // deterministically. (The real FRList has no such seam to expose: its
  // flagging C&S validates the predecessor atomically, which is the whole
  // point of the ablation.) Use with LeakyReclaimer or under external
  // quiescence, as with the insert hooks.
  struct EraseCursor {
    Key key{};
    Node* prev = nullptr;
    Node* del = nullptr;
  };

  bool erase_locate(const Key& k, EraseCursor& cur) {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    auto [prev, del] = search_from<false>(k, head_);
    if (!node_eq(del, k, comp_)) return false;
    cur.key = k;
    cur.prev = prev;
    cur.del = del;
    return true;
  }

  // Completes the deletion using the (possibly stale) located predecessor
  // as the backlink hint — exactly what the in-line erase() does when the
  // scheduler delays it between its search and its marking C&S.
  bool erase_complete(EraseCursor& cur) {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    Node* del = cur.del;
    bool erased = false;
    for (;;) {
      const View del_succ = del->succ.load();
      if (del_succ.mark) break;  // concurrent (or earlier) erase won
      del->backlink.store(cur.prev, std::memory_order_release);
      const View result =
          del->succ.cas(View{del_succ.right, false, false},
                        View{del_succ.right, true, false});
      if (result == View{del_succ.right, false, false}) {
        stats::tls().mark_cas.inc();
        erased = true;
        const View unlink =
            cur.prev->succ.cas(View{del, false, false},
                               View{del_succ.right, false, false});
        if (unlink == View{del, false, false}) {
          stats::tls().pdelete_cas.inc();
          reclaimer_.retire(del);
        }
        // No sweep here: physical deletion is deliberately left to later
        // searches when the hint was stale, as in a delayed erase().
        break;
      }
    }
    stats::tls().op_erase.inc();
    return erased;
  }

 private:
  // Walk the backlink chain from a marked node to an unmarked one. Without
  // flags the chain may pass through OTHER marked nodes — the growth the
  // paper's flag bit forbids. Instrumented for E7.
  void recover(Node*& prev) const {
    auto& c = stats::tls();
    std::uint64_t chain = 0;
    while (prev->succ.load().mark) {
      c.backlink_traversal.inc();
      ++chain;
      prev = prev->backlink.load(std::memory_order_acquire);
    }
    if (chain > 0) stats::chain_hist_tls().record(chain);
  }

  // Search with Harris/Michael-style physical deletion of marked nodes,
  // using backlinks (not restarts) when the current node itself is marked.
  template <bool Closed>
  std::pair<Node*, Node*> search_from(const Key& k, Node* curr) const {
    auto& c = stats::tls();
    auto advances = [&](const Node* n) {
      return Closed ? node_le(n, k, comp_) : node_lt(n, k, comp_);
    };
    Node* next = curr->succ.load().right;
    for (;;) {
      while (next->kind == Node::Kind::kInterior && next->succ.load().mark) {
        if (curr->succ.load().mark) {
          recover(curr);
          next = curr->succ.load().right;
          c.next_update.inc();
          continue;
        }
        // next is marked, so next.right is frozen: unlink next.
        Node* after = next->succ.load().right;
        const View result = curr->succ.cas(View{next, false, false},
                                           View{after, false, false});
        if (result == View{next, false, false}) {
          stats::tls().pdelete_cas.inc();
          reclaimer_.retire(next);
        }
        next = curr->succ.load().right;
        c.next_update.inc();
      }
      if (!advances(next)) break;
      curr = next;
      c.curr_update.inc();
      next = curr->succ.load().right;
    }
    return {curr, next};
  }

  Compare comp_;
  mutable Reclaimer reclaimer_;
  Node* head_;
  Node* tail_;
};

}  // namespace lf
