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
// Insert, erase, find and the two-phase hooks are mark::Core's
// (mark_core.h), shared with MichaelList and FRListNoFlag; this file keeps
// Harris's search and his recovery, a restart from the head.
//
// Reclamation: a node (or chain of marked nodes) is retired by the thread
// whose C&S physically unlinked it. Safe under epoch reclamation; NOT safe
// under hazard pointers (Harris's traversal can hold pointers to freed
// chains — that is exactly the problem Michael's variant fixes).
#pragma once

#include <functional>

#include "lf/baselines/mark_core.h"
#include "lf/chaos/chaos.h"
#include "lf/core/key_order.h"
#include "lf/instrument/counters.h"
#include "lf/reclaim/epoch.h"
#include "lf/reclaim/reclaimer.h"

namespace lf {

template <typename Key, typename T = Key, typename Compare = std::less<Key>,
          typename Reclaimer = reclaim::EpochReclaimer>
class HarrisList
    : public mark::Core<HarrisList<Key, T, Compare, Reclaimer>,
                        mark::Node<Key, T>, Key, T, Compare, Reclaimer> {
  using Core = mark::Core<HarrisList, mark::Node<Key, T>, Key, T, Compare,
                          Reclaimer>;
  friend Core;

 public:
  using typename Core::Node;

 private:
  using typename Core::View;
  using typename Core::Window;

  // Harris's search: returns adjacent (left, right) with left unmarked,
  // left.key < k <= right.key, unlinking any marked chain between them.
  // Restarts from the head whenever a C&S fails or adjacency is lost.
  Window search(const Key& k) const {
    auto& c = stats::tls();
    for (;;) {
      // Phase 1: walk from head, remembering the last unmarked node.
      Node* left = this->head_;
      View left_succ = left->succ.load();
      Node* t = left;
      View t_succ = left_succ;
      for (;;) {
        if (!t_succ.mark) {
          left = t;
          left_succ = t_succ;
        }
        t = t_succ.right;
        c.curr_update.inc();
        if (t->kind == Node::Kind::kTail) break;
        t_succ = t->succ.load();
        if (!t_succ.mark && !node_lt(t, k, this->comp_)) break;
      }
      Node* right = t;
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
          this->reclaimer_.retire(dead);
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

  // Recovery after a failed C&S: the whole search repeats from the head.
  Window recover(const Key& k, Node* /*left*/) const {
    return this->restart(k);
  }
};

}  // namespace lf
