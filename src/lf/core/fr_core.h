// The per-level core of all four FR structures: the paper's flag/mark/
// backlink steps on one level (Figures 3-5), written once.
//
// Section 4 builds the skip list so that each level is one of the Section 3
// linked lists: HelpMarked, HelpFlagged, TryMark, TryFlag and the Insert
// retry loop run unchanged on every level. Section 5 keeps the algorithm
// and only changes memory management (Valois reference counting). So one
// template serves FRList and FRSkipList (uncounted: the reclaimer defers
// frees) and FRListRC and FRSkipListRC (counted, through rc::Core in
// fr_rc_core.h, which derives from this class). A structure keeps only its
// level-local search and what happens to a node it unlinks; the counted
// core replaces only the reference points listed below.
//
// The core imposes no node base class. It only names the fields the paper's
// steps touch — `kind`, `key`, `succ` and `backlink` — so each structure
// keeps its own node layout (FRSkipList's is ordered for its search).
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "lf/chaos/chaos.h"
#include "lf/core/key_order.h"
#include "lf/instrument/counters.h"
#include "lf/sync/backoff.h"
#include "lf/sync/succ_field.h"
#include "lf/util/prefetch.h"

namespace lf::fr {

// The chaos injection sites of one structure's per-level steps. The core
// fires each at the same point for every structure; the lists pass the
// kList* sites and the skip lists the kSkip* sites, so chaos tests still
// tell them apart.
struct Sites {
  chaos::Site search_step;  // the default search_right's advance
  chaos::Site insert_cas;
  chaos::Site flag_cas;
  chaos::Site mark_cas;
  chaos::Site unlink_cas;
  chaos::Site backlink_step;
  chaos::Site help_flagged;
  chaos::Site help_marked;
};

inline constexpr Sites kListSites{
    .search_step = chaos::Site::kListSearchStep,
    .insert_cas = chaos::Site::kListInsertCas,
    .flag_cas = chaos::Site::kListFlagCas,
    .mark_cas = chaos::Site::kListMarkCas,
    .unlink_cas = chaos::Site::kListUnlinkCas,
    .backlink_step = chaos::Site::kListBacklinkStep,
    .help_flagged = chaos::Site::kListHelpFlagged,
    .help_marked = chaos::Site::kListHelpMarked,
};

inline constexpr Sites kSkipSites{
    .search_step = chaos::Site::kSkipSearchStep,
    .insert_cas = chaos::Site::kSkipInsertCas,
    .flag_cas = chaos::Site::kSkipFlagCas,
    .mark_cas = chaos::Site::kSkipMarkCas,
    .unlink_cas = chaos::Site::kSkipUnlinkCas,
    .backlink_step = chaos::Site::kSkipBacklinkStep,
    .help_flagged = chaos::Site::kSkipHelpFlagged,
    .help_marked = chaos::Site::kSkipHelpMarked,
};

// CRTP base. The core calls the hooks below through `derived()` (Derived
// befriends the core); a structure, or rc::Core, shadows one by declaring
// a member of the same name.
//
//   template <bool Closed>
//   std::pair<Node*, Node*> search_right(const Key& k, Node* curr,
//                                        stats::StepCounters& c) const;
//     the level-local search from curr: consecutive (n1, n2) on curr's
//     level with n1.key <= k < n2.key (Closed) or n1.key < k <= n2.key
//     (!Closed). try_flag and the insert step relocate through it. The
//     default is SearchFrom (the lists); the skip lists shadow it with
//     SearchRight (fr::SkipCore, fr_skip_core.h), which also deletes
//     superfluous tower nodes.
//   void on_unlinked(Node* del) const;
//     called once, by the thread whose C&S physically deleted del (FRList
//     retires del; FRSkipList drops one reference on del's tower; rc::Core
//     releases the removed link's count).
//   bool finger_hold(Way& way) const;
//     makes a probed finger way's node safe to dereference (finger_enter).
//     The default trusts the caller's probe filter (FRList's epoch or
//     leaky token); rc::Core shadows it with the counted hold and reuse
//     stamp check.
//   void on_right_changed(Node* n, bool published) const;
//     called by the thread that just changed n's right pointer: after its
//     successful insert or unlink C&S on n (published), and on a new node
//     once the insert step has stored its successor, before the C&S
//     publishes it (!published). FRSkipList refreshes n's successor-key
//     hint; the default does nothing.
//
// The reference points default to the uncounted steps, which inline away;
// rc::Core shadows them with Valois's counted ones: acquire / release (a
// thread reference), safe_read_succ / safe_read_backlink (SafeRead),
// set_backlink (the store before del's mark), count_link / uncount_link
// (the pre-count of the link a C&S creates, and its roll-back when the C&S
// fails), and help_flagged_seen (help the deletion announced by a flagged
// successor word seen in a C&S result or load). Under counting,
// search_right and try_flag consume the reference on their start node and
// return held nodes, walk_backlinks swaps a held node for a held one, and
// the other steps borrow their arguments.
//
// Every step counts into the calling thread's counter block c, which the
// operation fetches once and hands down (stats::tls() is a TLS guard test,
// or a call where GCC declines to inline it). Every method is const:
// searches are const and help deletions.
template <typename Derived, typename Node, typename Key, typename Compare,
          Sites kSites>
class Core {
 public:
  using View = sync::SuccView<Node>;
  using node_type = Node;

  enum class FlagStatus { kIn, kDeleted };
  enum class InsertResult { kInserted, kDuplicate };

  explicit Core(Compare comp) : comp_(std::move(comp)) {}

  // ---- snapshot helpers over Derived::for_each -----------------------------

  // Number of unmarked (regular) interior nodes. O(n); a linearizable size
  // is impossible to maintain cheaply on a lock-free list, so under
  // concurrency this is a point-in-traversal approximation.
  std::size_t size() const {
    std::size_t n = 0;
    derived().for_each([&](const Key&, const auto&) { ++n; });
    return n;
  }

  bool empty() const { return size() == 0; }

  std::vector<Key> keys() const {
    std::vector<Key> out;
    derived().for_each([&](const Key& k, const auto&) { out.push_back(k); });
    return out;
  }

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

  // SEARCHFROM (Figure 3), the default search_right: walks right from curr
  // to consecutive n1, n2 with n1.right == n2 at some time during the call
  // and n1.key <= k < n2.key (Closed) or n1.key < k <= n2.key (!Closed;
  // the paper's SearchFrom(k - eps)). Physically deletes the logically
  // deleted nodes it meets by helping (line 5).
  template <bool Closed>
  std::pair<Node*, Node*> search_right(const Key& k, Node* curr,
                                       stats::StepCounters& c) const {
    auto advances = [&](const Node* n) {
      return Closed ? node_le(n, k, comp_) : node_lt(n, k, comp_);
    };
    Node* next = derived().safe_read_succ(curr);
    LF_PREFETCH(next);
    while (advances(next)) {
      // Ensure that either next is unmarked, or both curr and next are
      // marked and curr was marked earlier (paper lines 3-6).
      for (;;) {
        const View next_succ = next->succ.load();
        if (!next_succ.mark) break;
        const View curr_succ = curr->succ.load();
        if (curr_succ.mark && curr_succ.right == next) break;
        if (curr_succ.right == next) help_marked(curr, next, c);
        derived().release(next);
        next = derived().safe_read_succ(curr);
        LF_PREFETCH(next);
        c.next_update.inc();  // paper line 6
      }
      if (advances(next)) {
        chaos_point(kSites.search_step);
        derived().release(curr);
        curr = next;  // the reference moves with it
        c.curr_update.inc();  // paper line 8
        // Start the next hop's line fill while this node's key compares
        // run — the dependent-load chain is the list's dominant stall
        // (util/prefetch.h).
        next = derived().safe_read_succ(curr);
        LF_PREFETCH(next);
      }
    }
    return {curr, next};
  }

  // HELPMARKED (Figure 3): physically deletes the marked node del (the
  // successor of the flagged node prev) and removes prev's flag, in one
  // C&S. The thread whose C&S performs the unlink owns del's disposal.
  void help_marked(Node* prev, Node* del, stats::StepCounters& c) const {
    chaos_point(kSites.help_marked);
    c.help_marked.inc();
    Node* next = derived().safe_read_succ(del);
    derived().count_link(next);
    const View result = chaos::cas(kSites.unlink_cas, prev->succ,
                                   View{del, false, true},
                                   View{next, false, false}, c);
    if (result == View{del, false, true}) {
      c.pdelete_cas.inc();
      derived().on_right_changed(prev, true);
      derived().on_unlinked(del);
    } else {
      derived().uncount_link(next);
    }
    derived().release(next);
  }

  // HELPFLAGGED (Figure 4): prev is flagged and del is its successor: set
  // del's backlink, mark del, then physically delete it. Callable by any
  // thread (helping); all callers compute the same backlink value.
  void help_flagged(Node* prev, Node* del, stats::StepCounters& c) const {
    chaos_point(kSites.help_flagged);
    c.help_flagged.inc();
    derived().set_backlink(del, prev);
    if (!del->succ.load().mark) try_mark(del, c);
    help_marked(prev, del, c);
  }

  // TRYMARK (Figure 4).
  void try_mark(Node* del, stats::StepCounters& c) const {
    do {
      Node* next = derived().safe_read_succ(del);
      const View result = chaos::cas(kSites.mark_cas, del->succ,
                                     View{next, false, false},
                                     View{next, true, false}, c);
      if (result == View{next, false, false}) {
        c.mark_cas.inc();
      } else if (result.flag && !result.mark) {
        // Failure because del itself got flagged: a deletion of del's
        // successor is underway; help it finish, then retry.
        derived().help_flagged_seen(del, result, c);
      }
      // Failure because del.right changed: loop re-reads and retries.
      derived().release(next);
    } while (!del->succ.load().mark);
  }

  // Moves prev left along its backlink chain to the nearest unmarked node
  // (Figure 5 lines 9-10 and 17-18). Because a node is only marked while
  // its predecessor is flagged, the chain only ever leads left; and every
  // marker sets the backlink before its mark C&S, so a marked node's
  // backlink is never null.
  void walk_backlinks(Node*& prev, stats::StepCounters& c) const {
    std::uint64_t chain = 0;
    while (prev->succ.load().mark) {
      chaos_point(kSites.backlink_step);
      c.backlink_traversal.inc();
      ++chain;
      Node* back = derived().safe_read_backlink(prev);
      assert(back != nullptr && "marked node without a backlink");
      derived().release(prev);
      prev = back;
    }
    if (chain > 0) c.chain_hist.record(chain);
  }

  // TRYFLAG (Figure 5): flags target's predecessor. Returns the updated
  // predecessor, whether target is still in the level (kIn: prev' is
  // flagged for target; kDeleted: target left first), and whether THIS
  // call's C&S placed the flag (that operation reports the deletion).
  std::tuple<Node*, FlagStatus, bool> try_flag(Node* prev, Node* target,
                                               stats::StepCounters& c) const {
    sync::Backoff backoff;
    for (;;) {
      if (prev->succ.load() == View{target, false, true}) {
        return {prev, FlagStatus::kIn, false};  // flagged by someone else
      }
      const View result = chaos::cas(kSites.flag_cas, prev->succ,
                                     View{target, false, false},
                                     View{target, false, true}, c);
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
      walk_backlinks(prev, c);
      auto [new_prev, del] =
          derived().template search_right<false>(target->key, prev, c);
      derived().release(del);
      if (del != target) return {new_prev, FlagStatus::kDeleted, false};
      prev = new_prev;
    }
  }

  // The three-step deletion of del on its level. Returns whether THIS
  // call's flag initiated the deletion.
  bool delete_node(Node* prev, Node* del, stats::StepCounters& c) const {
    auto [flag_prev, status, won] = try_flag(derived().acquire(prev), del, c);
    if (status == FlagStatus::kIn) help_flagged(flag_prev, del, c);
    derived().release(flag_prev);
    return won;
  }

  // One pass of the INSERT retry loop (Figure 5 lines 6-21): help the
  // deletion that flagged prev, or attempt the insertion C&S and, when it
  // fails, help / back off / walk backlinks; then re-search from prev.
  // Returns true iff the C&S linked node (the linearization point of a
  // successful insert); otherwise (prev, next) is the re-search result.
  // prev and next are held by the caller and replaced by held results.
  bool insert_step(Node* node, Node*& prev, Node*& next,
                   sync::Backoff& backoff, stats::StepCounters& c) const {
    const View prev_succ = prev->succ.load();
    if (prev_succ.flag) {
      derived().help_flagged_seen(prev, prev_succ, c);
    } else {
      node->succ.store_unsynchronized(View{next, false, false});
      derived().on_right_changed(node, false);
      // Pre-counted: counted only after the C&S, the linked node would
      // carry just its creator's reference, and a concurrent unlink could
      // free it while the creator still uses it. node->next inherits the
      // count of prev->next.
      derived().count_link(node);
      const View result = chaos::cas(kSites.insert_cas, prev->succ,
                                     View{next, false, false},
                                     View{node, false, false}, c);
      if (result == View{next, false, false}) {
        c.insert_cas.inc();
        derived().on_right_changed(prev, true);
        return true;
      }
      derived().uncount_link(node);
      if (result.flag && !result.mark)
        derived().help_flagged_seen(prev, result, c);
      // Failed insertion C&S under contention: back off before the
      // recovery walk + re-search (no counted steps; see try_flag).
      backoff.pause();
      walk_backlinks(prev, c);
    }
    derived().release(next);
    std::tie(prev, next) =
        derived().template search_right<true>(node->key, prev, c);
    return false;
  }

  // The INSERT retry loop: links node between (prev, next), a search
  // result for node's key, unless a node with that key is found first.
  // Returns the final prev. node is never published on kDuplicate.
  std::pair<Node*, InsertResult> insert_node(Node* node, Node* prev,
                                             Node* next,
                                             stats::StepCounters& c) const {
    prev = derived().acquire(prev);
    next = derived().acquire(next);
    sync::Backoff backoff;
    while (!node_eq(prev, node->key, comp_)) {
      if (insert_step(node, prev, next, backoff, c)) {
        derived().release(next);
        return {prev, InsertResult::kInserted};
      }
    }
    derived().release(next);
    return {prev, InsertResult::kDuplicate};
  }

  // ---- the finger entry (sync/finger.h, DESIGN.md §10) ----------------------

  // Enters a search toward k at one way set's probe winners (the bracket
  // way, then with use_fallback the fallback; FingerCache::Set::probe,
  // filtered by proof.usable). Each candidate is held (a failed
  // finger_hold kills the way), fires validate_site and walks backlinks:
  // unmarked, it is a hit; else it is released. Returns the held start and
  // the bracket way's index if that way served, or (nullptr, -1); the
  // caller counts a miss.
  template <typename Set, typename Proof>
  std::pair<Node*, int> finger_enter(Set& set, const Key& k, bool closed,
                                     bool use_fallback,
                                     chaos::Site validate_site,
                                     const Proof& proof,
                                     stats::StepCounters& c) const {
    const auto probe = set.probe(
        k, closed, comp_, [&](const auto& way) { return proof.usable(way); });
    for (const int i : {probe.bracket, use_fallback ? probe.fallback : -1}) {
      if (i < 0) continue;
      auto& way = set.way[i];
      if (!derived().finger_hold(way)) {
        way.node = nullptr;  // recycled since the save: a dead way
        continue;
      }
      Node* start = way.node;
      chaos_point(validate_site);
      walk_backlinks(start, c);  // a marked finger recovers leftward
      if (!start->succ.load().mark) {
        set.hit(i);
        c.finger_hit.inc();
        return {start, i == probe.bracket ? i : -1};
      }
      derived().release(start);
    }
    return {nullptr, -1};
  }

  template <typename Way>
  bool finger_hold(Way&) const { return true; }

  // ---- reference points: the uncounted defaults -----------------------------

  Node* acquire(Node* p) const { return p; }
  void release(Node*) const {}
  Node* safe_read_succ(Node* n) const { return n->succ.load().right; }
  Node* safe_read_backlink(Node* n) const {
    return n->backlink.load(std::memory_order_acquire);
  }
  // Idempotent: every helper of one deletion stores the same prev.
  void set_backlink(Node* del, Node* prev) const {
    del->backlink.store(prev, std::memory_order_release);
  }
  void count_link(Node*) const {}
  void uncount_link(Node*) const {}
  // Forced inline: else this call level in the help_flagged -> try_mark
  // recursion changes the uncounted code (tools/fn_diff.py).
  [[gnu::always_inline]] void help_flagged_seen(
      Node* prev, View seen, stats::StepCounters& c) const {
    help_flagged(prev, seen.right, c);
  }
  void on_right_changed(Node*, bool) const {}

 protected:
  Compare comp_;

  const Derived& derived() const { return static_cast<const Derived&>(*this); }

 private:
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
