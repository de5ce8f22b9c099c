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
// compares against analytically in Sections 1-2. Insert, erase, find and
// the two-phase hooks are mark::Core's (mark_core.h); each variant keeps
// its search and that restart.
#pragma once

#include <functional>

#include "lf/baselines/mark_core.h"
#include "lf/core/key_order.h"
#include "lf/instrument/counters.h"
#include "lf/reclaim/epoch.h"
#include "lf/reclaim/hazard.h"
#include "lf/reclaim/reclaimer.h"

namespace lf {

template <typename Key, typename T = Key, typename Compare = std::less<Key>,
          typename Reclaimer = reclaim::EpochReclaimer>
class MichaelList
    : public mark::Core<MichaelList<Key, T, Compare, Reclaimer>,
                        mark::Node<Key, T>, Key, T, Compare, Reclaimer> {
  using Core = mark::Core<MichaelList, mark::Node<Key, T>, Key, T, Compare,
                          Reclaimer>;
  friend Core;

 public:
  using typename Core::Node;

 private:
  using typename Core::View;
  using typename Core::Window;

  // Michael's Find: returns (prev, curr) with prev unmarked,
  // prev.right == curr, prev.key < k <= curr.key; unlinks each marked node
  // it meets, restarting from head when any C&S fails.
  Window search(const Key& k) const {
    auto& c = stats::tls();
  try_again:
    Node* prev = this->head_;
    Node* curr = prev->succ.load().right;
    for (;;) {
      if (curr->kind == Node::Kind::kTail) return {prev, curr};
      const View curr_succ = curr->succ.load();
      if (curr_succ.mark) {
        if (!this->try_unlink(prev, curr, curr_succ.right)) {
          c.restart.inc();
          goto try_again;
        }
        curr = curr_succ.right;
        c.next_update.inc();
        continue;
      }
      if (!node_lt(curr, k, this->comp_)) return {prev, curr};
      prev = curr;
      curr = curr_succ.right;
      c.curr_update.inc();
    }
  }

  Window recover(const Key& k, Node* /*left*/) const {
    return this->restart(k);
  }
};

namespace mark {

// MichaelListHP's reclaimer: the hazard domain. A guard is the scope of one
// public operation and clears every slot of the calling thread when that
// operation ends, so no protection outlives it.
class HazardScope {
 public:
  explicit HazardScope(reclaim::HazardDomain& domain) : domain_(&domain) {}

  class Guard {
   public:
    explicit Guard(reclaim::HazardDomain::ThreadSlots& hp) : hp_(hp) {}
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    ~Guard() { hp_.clear_all(); }

   private:
    reclaim::HazardDomain::ThreadSlots& hp_;
  };

  Guard guard() const { return Guard(domain_->slots()); }

  template <typename Node>
  void retire(Node* node) const {
    domain_->retire(node);
  }

  reclaim::HazardDomain::ThreadSlots& slots() const {
    return domain_->slots();
  }

 private:
  reclaim::HazardDomain* domain_;
};

}  // namespace mark

// ---------------------------------------------------------------------------
// MichaelListHP: the same algorithm with Michael's full hazard-pointer
// protocol. Slots: 0 = curr, 1 = prev. Each advance publishes the new curr,
// then validates that prev still links to it (which also proves curr was
// not retired before the publication became visible).
// ---------------------------------------------------------------------------
template <typename Key, typename T = Key, typename Compare = std::less<Key>>
class MichaelListHP
    : public mark::Core<MichaelListHP<Key, T, Compare>, mark::Node<Key, T>,
                        Key, T, Compare, mark::HazardScope> {
  using Core = mark::Core<MichaelListHP, mark::Node<Key, T>, Key, T, Compare,
                          mark::HazardScope>;
  friend Core;

 public:
  using typename Core::Node;

  explicit MichaelListHP(reclaim::HazardDomain& domain =
                             reclaim::HazardDomain::global())
      : Core(mark::HazardScope(domain)) {}

 private:
  using typename Core::View;
  using typename Core::Window;

  // Hazard-slot usage: the traversal keeps two published references live
  // (0 = curr, 1 = prev); the third of Michael's three references (next) is
  // protected transitively by the validation that prev still links to curr.
  static_assert(2 <= reclaim::HazardDomain::kMichaelListSlots,
                "MichaelListHP publishes slots 0 and 1; they must lie "
                "inside the Michael-list slot budget");

  // Find with hazard protection. On return, slot 0 protects curr and
  // slot 1 protects prev, so the caller's C&S operates on protected nodes.
  Window search(const Key& k) const {
    auto& c = stats::tls();
    auto& hp = this->reclaimer_.slots();
  try_again:
    Node* prev = this->head_;
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
      if (curr->kind == Node::Kind::kTail) return {prev, curr};
      const View curr_succ = curr->succ.load();
      if (curr_succ.mark) {
        if (!this->try_unlink(prev, curr, curr_succ.right)) {
          c.restart.inc();
          goto try_again;
        }
        curr = curr_succ.right;
        c.next_update.inc();
        continue;
      }
      if (!node_lt(curr, k, this->comp_)) return {prev, curr};
      prev = curr;
      // Not a protect() site: curr is already protected by slot 0 at this
      // moment, so copying it into slot 1 transfers an existing guarantee —
      // there is no publish/reload race to revalidate.
      hp.set(1, prev);
      curr = curr_succ.right;
      c.curr_update.inc();
    }
  }

  Window recover(const Key& k, Node* /*left*/) const {
    return this->restart(k);
  }
};

}  // namespace lf
