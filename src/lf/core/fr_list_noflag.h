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
//
// Insert, erase, find and the two-phase insert hooks are mark::Core's
// (baselines/mark_core.h), the same as Harris's and Michael's lists; this
// file keeps the backlink-recovering search, the recovery itself, the
// backlink hint stored before marking, and the E7 erase seam.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>

#include "lf/baselines/mark_core.h"
#include "lf/core/key_order.h"
#include "lf/instrument/counters.h"
#include "lf/reclaim/epoch.h"
#include "lf/reclaim/reclaimer.h"
#include "lf/sync/succ_field.h"

namespace lf {

namespace mark {

// FRListNoFlag's node: mark::Node plus the backlink.
template <typename Key, typename T>
struct alignas(8) BacklinkNode {
  enum class Kind : unsigned char { kHead, kInterior, kTail };

  Kind kind;
  Key key;
  T value;
  sync::SuccField<BacklinkNode> succ;
  std::atomic<BacklinkNode*> backlink{nullptr};

  BacklinkNode(Kind k, Key key_arg, T value_arg)
      : kind(k), key(std::move(key_arg)), value(std::move(value_arg)) {}
};

}  // namespace mark

template <typename Key, typename T = Key, typename Compare = std::less<Key>,
          typename Reclaimer = reclaim::EpochReclaimer>
class FRListNoFlag
    : public mark::Core<FRListNoFlag<Key, T, Compare, Reclaimer>,
                        mark::BacklinkNode<Key, T>, Key, T, Compare,
                        Reclaimer> {
  using Core = mark::Core<FRListNoFlag, mark::BacklinkNode<Key, T>, Key, T,
                          Compare, Reclaimer>;
  friend Core;

 public:
  using typename Core::Node;

  // ---- Two-phase erase hooks (benchmark adversary, E7) -------------------
  //
  // The pathology the paper's flag bit eliminates is a backlink being SET
  // to an already-marked node ("chains grow towards the right"). In this
  // flagless variant that happens whenever the predecessor hint captured
  // at locate time goes stale before the marking step. These hooks expose
  // that seam so the E7 driver can build maximal stale-hint chains
  // deterministically. (The real FRList has no such seam to expose: its
  // flagging C&S validates the predecessor atomically, which is the whole
  // point of the ablation.) Use with LeakyReclaimer, under an outer epoch
  // guard, or under external quiescence, as with the insert hooks.
  struct EraseCursor {
    Key key{};
    Node* prev = nullptr;
    Node* del = nullptr;
  };

  bool erase_locate(const Key& k, EraseCursor& cur) {
    [[maybe_unused]] auto guard = this->reclaimer_.guard();
    auto [prev, del] = search(k);
    if (!node_eq(del, k, this->comp_)) return false;
    cur.key = k;
    cur.prev = prev;
    cur.del = del;
    return true;
  }

  // Completes the deletion using the (possibly stale) located predecessor
  // as the backlink hint — exactly what the in-line erase does when the
  // scheduler delays it between its search and its marking C&S. There is
  // no sweep after a failed unlink: physical deletion is deliberately left
  // to later searches, as in a delayed erase.
  bool erase_complete(EraseCursor& cur) {
    [[maybe_unused]] auto guard = this->reclaimer_.guard();
    bool erased = false;
    while (!erased && !cur.del->succ.marked()) {
      if (Node* next = this->try_mark(cur.prev, cur.del)) {
        erased = true;
        this->try_unlink(cur.prev, cur.del, next);
      }
    }
    stats::tls().op_erase.inc();
    return erased;
  }

 private:
  using typename Core::View;
  using typename Core::Window;

  void hint_backlink(Node* del, Node* left) const {
    del->backlink.store(left, std::memory_order_release);
  }

  // Walk the backlink chain from a marked node to an unmarked one. Without
  // flags the chain may pass through OTHER marked nodes — the growth the
  // paper's flag bit forbids. Instrumented for E7.
  void walk_backlinks(Node*& prev) const {
    auto& c = stats::tls();
    std::uint64_t chain = 0;
    while (prev->succ.load().mark) {
      c.backlink_traversal.inc();
      ++chain;
      prev = prev->backlink.load(std::memory_order_acquire);
    }
    if (chain > 0) stats::chain_hist_tls().record(chain);
  }

  // Recovery after a failed C&S: back along the backlinks, not to the head.
  Window recover(const Key& k, Node* left) const {
    walk_backlinks(left);
    return search_from(k, left);
  }

  Window search(const Key& k) const { return search_from(k, this->head_); }

  // Search with Harris/Michael-style physical deletion of marked nodes,
  // using backlinks (not restarts) when the current node itself is marked.
  Window search_from(const Key& k, Node* curr) const {
    auto& c = stats::tls();
    Node* next = curr->succ.load().right;
    for (;;) {
      while (next->kind == Node::Kind::kInterior && next->succ.load().mark) {
        if (curr->succ.load().mark) {
          walk_backlinks(curr);
        } else {
          // next is marked, so next.right is frozen: unlink next.
          this->try_unlink(curr, next, next->succ.load().right);
        }
        next = curr->succ.load().right;
        c.next_update.inc();
      }
      if (!node_lt(next, k, this->comp_)) return {curr, next};
      curr = next;
      c.curr_update.inc();
      next = curr->succ.load().right;
    }
  }
};

}  // namespace lf
