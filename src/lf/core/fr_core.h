// The uncounted core shared by FRList and FRSkipList: the paper's
// flag/mark/backlink steps on one level (Figures 3-5), written once.
//
// Section 4 builds the skip list so that each level is one of the Section 3
// linked lists: HelpMarked, HelpFlagged, TryMark, TryFlag and the Insert
// retry loop run unchanged on every level. A structure keeps only its
// level-local search and what happens to a node it unlinks (the Derived
// hooks below). fr_rc_core.h is the counted counterpart for FRListRC and
// FRSkipListRC; the two cores use the same names so they read side by side.
//
// The core imposes no node base class. It only names the fields the paper's
// steps touch — `kind`, `key`, `succ` and `backlink` — so each structure
// keeps its own node layout (FRSkipList's is ordered for its search).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>

#include "lf/chaos/chaos.h"
#include "lf/core/key_order.h"
#include "lf/instrument/counters.h"
#include "lf/sync/backoff.h"
#include "lf/sync/succ_field.h"

namespace lf::fr {

// The chaos injection sites of one structure's per-level steps. The core
// fires each at the same point for every structure; FRList passes its
// kList* sites and FRSkipList its kSkip* sites, so chaos tests still tell
// the two apart.
struct Sites {
  chaos::Site insert_cas;
  chaos::Site flag_cas;
  chaos::Site mark_cas;
  chaos::Site unlink_cas;
  chaos::Site backlink_step;
  chaos::Site help_flagged;
  chaos::Site help_marked;
};

// CRTP base. `Derived` provides, reachable from the core (it befriends it):
//
//   template <bool Closed>
//   std::pair<Node*, Node*> search_right(const Key& k, Node* curr) const;
//     the level-local search from curr (FRList's SearchFrom; FRSkipList's
//     SearchRight, which also deletes superfluous tower nodes): consecutive
//     (n1, n2) on curr's level with n1.key <= k < n2.key (Closed) or
//     n1.key < k <= n2.key (!Closed). try_flag and the insert step
//     relocate through it.
//   void on_unlinked(Node* del) const;
//     called once, by the thread whose C&S physically deleted del (FRList
//     retires del; FRSkipList drops one reference on del's tower).
//   void on_right_changed(Node* n, bool published) const;
//     called by the thread that just changed n's right pointer: after its
//     successful insert or unlink C&S on n (published), and on a new node
//     once the insert step has stored its successor, before the C&S
//     publishes it (!published: no other thread can see n yet). FRList
//     does nothing; FRSkipList refreshes n's successor-key hint.
//
// Every method is const: searches are const and help deletions.
template <typename Derived, typename Node, typename Key, typename Compare,
          Sites kSites>
class Core {
 public:
  using View = sync::SuccView<Node>;

  enum class FlagStatus { kIn, kDeleted };
  enum class InsertResult { kInserted, kDuplicate };

  explicit Core(Compare comp) : comp_(std::move(comp)) {}

  // ---- quiescent validation -------------------------------------------------

  struct ValidationReport {
    bool ok = true;
    std::size_t node_count = 0;  // nodes linked on the levels checked
    std::string error;
  };

  // Checks one level from its head sentinel to the tail for the paper's
  // INV 1-5 as they manifest at a quiescent point: keys strictly sorted,
  // and no linked node marked or flagged (every deletion, once begun,
  // completes before its operation returns). INV5 (never both at once) is
  // checked first, so a word with both bits set is reported as the
  // invariant it breaks. `check(node)` returns an error message for the
  // structure's own per-node checks, or nullptr. Adds the level's nodes to
  // rep.node_count; false, with rep.error set, on the first failure.
  template <typename Check>
  bool validate_level(const Node* head, ValidationReport& rep,
                      Check&& check) const {
    const View hv = head->succ.load();
    if (hv.mark || hv.flag) return fail(rep, "head marked or flagged");
    const Node* prev = head;
    const Node* curr = hv.right;
    while (curr->kind != Node::Kind::kTail) {
      const View cv = curr->succ.load();
      if (cv.mark && cv.flag)
        return fail(rep, "INV5 violated: linked node marked and flagged");
      if (cv.mark) return fail(rep, "linked node marked at quiescence");
      if (cv.flag) return fail(rep, "linked node flagged at quiescence");
      if (prev->kind == Node::Kind::kInterior && !comp_(prev->key, curr->key))
        return fail(rep, "INV1 violated: keys not strictly sorted");
      if (const char* error = check(curr)) return fail(rep, error);
      ++rep.node_count;
      prev = curr;
      curr = cv.right;
      if (curr == nullptr) return fail(rep, "level does not reach tail");
    }
    return true;
  }

  // ---- the FR steps on one level --------------------------------------------

  // HELPMARKED (Figure 3): physically deletes the marked node del (the
  // successor of the flagged node prev) and removes prev's flag, in one
  // C&S. The thread whose C&S performs the unlink owns del's disposal.
  void help_marked(Node* prev, Node* del) const {
    chaos_point(kSites.help_marked);
    stats::tls().help_marked.inc();
    Node* next = del->succ.load().right;
    const View result = chaos::cas(kSites.unlink_cas, prev->succ,
                                   View{del, false, true},
                                   View{next, false, false});
    if (result == View{del, false, true}) {
      stats::tls().pdelete_cas.inc();
      derived().on_right_changed(prev, true);
      derived().on_unlinked(del);
    }
  }

  // HELPFLAGGED (Figure 4): prev is flagged and del is its successor: set
  // del's backlink, mark del, then physically delete it. Callable by any
  // thread (helping); all callers compute the same backlink value, so the
  // store is idempotent.
  void help_flagged(Node* prev, Node* del) const {
    chaos_point(kSites.help_flagged);
    stats::tls().help_flagged.inc();
    del->backlink.store(prev, std::memory_order_release);
    if (!del->succ.load().mark) try_mark(del);
    help_marked(prev, del);
  }

  // TRYMARK (Figure 4).
  void try_mark(Node* del) const {
    do {
      Node* next = del->succ.load().right;
      const View result = chaos::cas(kSites.mark_cas, del->succ,
                                     View{next, false, false},
                                     View{next, true, false});
      if (result == View{next, false, false}) {
        stats::tls().mark_cas.inc();
      } else if (result.flag && !result.mark) {
        // Failure because del itself got flagged: a deletion of del's
        // successor is underway; help it finish, then retry.
        help_flagged(del, result.right);
      }
      // Failure because del.right changed: loop re-reads and retries.
    } while (!del->succ.load().mark);
  }

  // Moves prev left along its backlink chain to the nearest unmarked node
  // (Figure 5 lines 9-10 and 17-18). Because a node is only marked while
  // its predecessor is flagged, the chain only ever leads left.
  void walk_backlinks(Node*& prev) const {
    auto& c = stats::tls();
    std::uint64_t chain = 0;
    while (prev->succ.load().mark) {
      chaos_point(kSites.backlink_step);
      c.backlink_traversal.inc();
      ++chain;
      prev = prev->backlink.load(std::memory_order_acquire);
    }
    if (chain > 0) stats::chain_hist_tls().record(chain);
  }

  // TRYFLAG (Figure 5): flags target's predecessor. Returns the updated
  // predecessor, whether target is still in the level (kIn: prev' is
  // flagged for target; kDeleted: target left first), and whether THIS
  // call's C&S placed the flag (that operation reports the deletion).
  std::tuple<Node*, FlagStatus, bool> try_flag(Node* prev,
                                               Node* target) const {
    auto& c = stats::tls();
    sync::Backoff backoff;
    for (;;) {
      if (prev->succ.load() == View{target, false, true}) {
        return {prev, FlagStatus::kIn, false};  // flagged by someone else
      }
      const View result = chaos::cas(kSites.flag_cas, prev->succ,
                                     View{target, false, false},
                                     View{target, false, true});
      if (result == View{target, false, false}) {
        c.flag_cas.inc();
        return {prev, FlagStatus::kIn, true};
      }
      if (result == View{target, false, true}) {
        return {prev, FlagStatus::kIn, false};  // lost to a concurrent flagger
      }
      // Lost a C&S to real contention: back off briefly before recovering,
      // so retry storms on one hot predecessor drain instead of thrashing.
      // Off the success path, so it adds no counted steps and no fast-path
      // cost (sync/backoff.h).
      backoff.pause();
      // Possibly a failure due to marking: recover through the backlink
      // chain, then relocate target's predecessor (line 11; k - eps).
      walk_backlinks(prev);
      auto [new_prev, del] =
          derived().template search_right<false>(target->key, prev);
      if (del != target) return {new_prev, FlagStatus::kDeleted, false};
      prev = new_prev;
    }
  }

  // The three-step deletion of del on its level. Returns whether THIS
  // call's flag initiated the deletion.
  bool delete_node(Node* prev, Node* del) const {
    auto [flag_prev, status, won] = try_flag(prev, del);
    if (status == FlagStatus::kIn) help_flagged(flag_prev, del);
    return won;
  }

  // One pass of the INSERT retry loop (Figure 5 lines 6-21): help the
  // deletion that flagged prev, or attempt the insertion C&S and, when it
  // fails, help / back off / walk backlinks; then re-search from prev.
  // Returns true iff the C&S linked node (the linearization point of a
  // successful insert); otherwise (prev, next) is the re-search result.
  bool insert_step(Node* node, Node*& prev, Node*& next,
                   sync::Backoff& backoff) const {
    const View prev_succ = prev->succ.load();
    if (prev_succ.flag) {
      help_flagged(prev, prev_succ.right);
    } else {
      node->succ.store_unsynchronized(View{next, false, false});
      derived().on_right_changed(node, false);
      const View result = chaos::cas(kSites.insert_cas, prev->succ,
                                     View{next, false, false},
                                     View{node, false, false});
      if (result == View{next, false, false}) {
        stats::tls().insert_cas.inc();
        derived().on_right_changed(prev, true);
        return true;
      }
      if (result.flag && !result.mark) help_flagged(prev, result.right);
      // Failed insertion C&S under contention: back off before the
      // recovery walk + re-search (no counted steps; see try_flag).
      backoff.pause();
      walk_backlinks(prev);
    }
    std::tie(prev, next) =
        derived().template search_right<true>(node->key, prev);
    return false;
  }

  // The INSERT retry loop: links node between (prev, next), a search
  // result for node's key, unless a node with that key is found first.
  // Returns the final prev. node is never published on kDuplicate.
  std::pair<Node*, InsertResult> insert_node(Node* node, Node* prev,
                                             Node* next) const {
    sync::Backoff backoff;
    while (!node_eq(prev, node->key, comp_)) {
      if (insert_step(node, prev, next, backoff)) {
        return {prev, InsertResult::kInserted};
      }
    }
    return {prev, InsertResult::kDuplicate};
  }

 protected:
  Compare comp_;

 private:
  const Derived& derived() const { return static_cast<const Derived&>(*this); }

  static bool fail(ValidationReport& rep, const char* msg) {
    rep.ok = false;
    rep.error = msg;
    return false;
  }

  // LF_CHAOS_POINT for a site held in a value (the macro takes a name).
  static void chaos_point([[maybe_unused]] chaos::Site site) {
#if LF_CHAOS
    chaos::point(site);
#endif
  }
};

}  // namespace lf::fr
