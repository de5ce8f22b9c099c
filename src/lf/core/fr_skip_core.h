// The skip-list layer of FRSkipList and FRSkipListRC, written once:
// SearchRight, SearchToLevel_SL, Insert_SL, Delete_SL and Search_SL
// (Section 4). As Section 5 notes, Valois's counting applies to the skip
// list unchanged, so SkipCore<Derived, Base> runs over Base = fr::Core
// (FRSkipList) or rc::Core (FRSkipListRC) and reaches the reference points
// through derived(): under counting every node it holds is a counted
// reference; without, acquire/release inline away.
//
// Derived befriends this class and supplies head(v), tail(), Node::root(),
// Node::down(), Node::kHinted (the successor-key hint `next_key`),
// kHeightSalt (its height rng's salt) and the tower hooks: make_root(kind,
// k, value, height), a never-published root held by the builder (may throw
// std::bad_alloc); discard_root(root), freeing one; grow_tower(root, below,
// k, v), the level-v node above `below`, held in its place (nullptr stops
// the build, `below` stays held); abandon_upper(root, node) for a
// never-linked upper node; tower_levels(root), the height make_root got,
// above which the tower never links, and guard(), the operation's
// reclamation guard (rc::Core's is empty). It may shadow finger_start(k,
// v, c) / save_finger() (RC's finger).
//
// Every descent but erase's stops at the first level where it meets k's
// tower (search_right's StopAtKey): find and contains return there, and a
// duplicate insert returns kDuplicate.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <new>
#include <optional>
#include <tuple>
#include <utility>

#include "lf/chaos/chaos.h"
#include "lf/core/key_order.h"
#include "lf/instrument/counters.h"
#include "lf/util/prefetch.h"
#include "lf/util/random.h"

namespace lf::fr {

template <typename Derived, typename Base>
class SkipCore : public Base {
 public:
  using Node = typename Base::node_type;
  using Key = decltype(Node::key);
  using T = decltype(Node::value);

  // Levels, counting level 1 (the list of every key). Towers occupy levels
  // 1..kMaxTowerHeight; the head reaches one level higher, so a descent
  // can always start on an empty level above every tower.
  static constexpr int kMaxLevel = 24;
  static constexpr int kMaxTowerHeight = kMaxLevel - 1;

  using Base::Base;

  // ---- Dictionary operations (Insert_SL / Delete_SL / Search_SL) -------

  // insert_checked distinguishes "key already present" from "allocation
  // failed". A std::bad_alloc while making the root is absorbed before
  // anything is linked; one while making an upper node truncates the
  // tower, but the root IS in, so the insert still succeeded.
  enum class InsertStatus { kInserted, kDuplicate, kNoMemory };

  bool insert(const Key& k, T value) {
    return insert_checked(k, std::move(value)) == InsertStatus::kInserted;
  }

  InsertStatus insert_checked(const Key& k, T value) {
    return insert_impl(k, std::move(value),
                       height_rng().tower_height(kMaxTowerHeight));
  }

  // Test hook: insert with a chosen tower height instead of coin flips, so
  // tests can target a specific upper level.
  InsertStatus insert_with_height(const Key& k, T value, int tower_height) {
    assert(tower_height >= 1 && tower_height <= kMaxTowerHeight);
    return insert_impl(k, std::move(value), tower_height);
  }

  bool erase(const Key& k) {
    [[maybe_unused]] auto guard = derived().guard();
    auto& c = stats::tls();
    // prev.key < k <= del.key on level 1. Erase never stops at k's tower:
    // it deletes the root, on level 1.
    Preds preds;
    auto [prev, del] = search_to_level<false>(k, preds, c);
    const bool erased =
        node_eq(del, k, comp_) && this->delete_node(prev, del, c);
    const int levels = erased ? derived().tower_levels(del) : 0;
    derived().release(prev);
    derived().release(del);
    if (erased) {
      // Delete_SL: physically delete the rest of the now-superfluous tower,
      // top-down over every level it may occupy, whatever the top hint did
      // meanwhile. Each level resumes from the first descent's predecessor
      // instead of from the head; the recorded levels above the tower hold
      // none of its nodes, so they are only released.
      release_preds(preds, levels + 1);
      for (int v = levels; v > 2; --v)
        release_pair(resume<false>(preds, k, v, c));
      if (levels >= 2) release_pair(resume<true>(preds, k, 2, c));
      // The tower may have been the tallest: let the hint fall.
      if (levels >= top_hint_.load()) lower_top_hint();
    } else {
      release_preds(preds, 2);
    }
    c.op_erase.inc();
    return erased;
  }

  // Search_SL, returning at the first level whose search meets k's tower
  // (search_node). The value lives in the tower's root.
  std::optional<T> find(const Key& k) const {
    [[maybe_unused]] auto guard = derived().guard();
    std::optional<T> out;
    if (Node* n = search_node(k)) {
      out.emplace(n->root()->value);
      derived().release(n);
    }
    return out;
  }

  bool contains(const Key& k) const {
    [[maybe_unused]] auto guard = derived().guard();
    Node* n = search_node(k);
    derived().release(n);
    return n != nullptr;
  }

  int top_level_hint() const noexcept {
    return top_hint_.load(std::memory_order_relaxed);
  }

  // Test hook: overwrite the top hint, e.g. below a linked tower, so tests
  // can check that validate() reports it. Never called by the structure.
  void set_top_level_hint_for_testing(int level) noexcept {
    top_hint_.store(level);
  }

  // Quiescent check of INV 1-5 on every level (fr::Core::validate_level)
  // and of the towers: no superfluous node (root marked) is linked, no
  // node sits above the top hint, an upper node's down() has its key, and
  // check(n, v) (the structure's own checks, down() one level lower among
  // them) passes. Counts all levels' nodes.
  template <typename Check>
  typename Base::ValidationReport validate_towers(Check&& check) const {
    typename Base::ValidationReport rep;
    const int top = top_level_hint();
    for (int v = 1; v <= kMaxLevel; ++v) {
      auto tower_error = [&](const Node* n) -> const char* {
        if (v > top) return "node above the top-level hint at quiescence";
        if (const char* error = check(n, v)) return error;
        if (n->root()->succ.load().mark)
          return "superfluous node linked at quiescence";
        if (v > 1 && !node_eq(n->down(), n->key, comp_))
          return "tower keys differ across levels";
        return nullptr;
      };
      if (!this->validate_level(derived().head(v), rep, tower_error)) break;
    }
    return rep;
  }

  // Hook defaults. No finger: every descent starts at the head. A finger returns a held
  // node with key < k (or <= k on level 1) on a level >= v, and that level.
  std::pair<Node*, int> finger_start(const Key&, int,
                                     stats::StepCounters&) const {
    return {nullptr, 0};
  }
  void save_finger(int, Node*, Node*) const {}

  // ---- SearchRight ---------------------------------------------------------
  //
  // SearchFrom (Figure 3) on one level, with the Section 4 addition:
  // "SearchRight deletes the superfluous nodes along its way, performing
  // all three deletion steps if necessary, whereas SearchFrom physically
  // deletes only those nodes that are already logically deleted." It is
  // fr::Core's search_right for both skip lists. Consumes the reference on
  // curr and returns held nodes.
  //
  // With Hinted, the search first asks each curr's successor-key hint:
  // if k < hint, it stops at curr without loading the successor and
  // returns (curr, nullptr). Only the descent above level 1 passes it.
  //
  // With StopAtKey, a search that meets a node n with key k, whose root the
  // superfluous-node check just read unmarked, returns (nullptr, n) with n
  // held: k is in the set at that read (DESIGN.md §2, "Deviation: searches
  // stop at their key's tower"). It does not load n's successor. A closed
  // search counts its step into n, as it would have taken it; a strict one
  // takes none. The equality is the superfluous-node check's n <= k,
  // repeated once n < k has failed; holding the check's result in a local
  // instead slowed misses ~4% (EXPERIMENTS.md E11).
  //
  // Forced inline: left to its heuristics GCC outlines the descent's
  // search_right<false> from search_to_level<true>, which costs find ~10%
  // (EXPERIMENTS.md E11). The descent passes the counter block it fetched
  // once, so its levels do not each check the thread-local's guard.
  template <bool Closed, bool Hinted = false, bool StopAtKey = false>
  [[gnu::always_inline]] std::pair<Node*, Node*> search_right(
      const Key& k, Node* curr, stats::StepCounters& c) const {
    // A search that stops at k never steps into a node with key k but the
    // one it stops at, so it advances strictly.
    auto advances = [&](const Node* n) {
      return Closed && !StopAtKey ? node_le(n, k, comp_)
                                  : node_lt(n, k, comp_);
    };
    auto hint_stops = [&](const Node* n) {
      if constexpr (Hinted) {
        return comp_(k, n->next_key.load(std::memory_order_relaxed));
      } else {
        return false;
      }
    };
    if (hint_stops(curr)) return {curr, nullptr};
    Node* next = derived().safe_read_succ(curr);
    LF_PREFETCH(next);
    for (;;) {
      // Delete every superfluous tower node on the search path (root
      // marked). The trigger is key <= k in BOTH search modes: a strict
      // (k - eps) search never steps INTO a node with key == k, but the
      // erase cleanup descends with exactly that key and must still remove
      // the tower's upper nodes, and removal never moves curr rightward,
      // so the postcondition of either mode is preserved.
      while (next->kind == Node::Kind::kInterior && node_le(next, k, comp_) &&
             next->root()->succ.load().mark) {
        auto [new_curr, status, won] = this->try_flag(curr, next, c);
        curr = new_curr;
        if (status == Base::FlagStatus::kIn) this->help_flagged(curr, next, c);
        derived().release(next);
        next = derived().safe_read_succ(curr);
        LF_PREFETCH(next);
        c.next_update.inc();
      }
      if (!advances(next)) {
        if (StopAtKey && node_le(next, k, comp_)) {  // next.key == k
          if constexpr (Closed) {
            LF_CHAOS_POINT(kSkipSearchStep);
            c.curr_update.inc();
          }
          derived().release(curr);
          return {nullptr, next};
        }
        break;
      }
      LF_CHAOS_POINT(kSkipSearchStep);
      derived().release(curr);
      curr = next;  // the reference moves with it
      c.curr_update.inc();
      if (hint_stops(curr)) return {curr, nullptr};
      // The hop is a dependent-load chain; start pulling in the next node's
      // line while this iteration finishes its key compare (util/prefetch.h).
      next = derived().safe_read_succ(curr);
      LF_PREFETCH(next);
    }
    return {curr, next};
  }

 protected:
  using Base::comp_;
  using Base::derived;

  // The nodes an update's first descent stepped down from (the `preds` of
  // Herlihy and Shavit's skip-list find): at[v] is level v's last node
  // with key < k, for v = 2..top, and next[v] its successor then (nullptr
  // where a successor-key hint stopped the search). Levels above top were
  // not visited. Only levels 2..top are ever read, and the descent writes
  // exactly those, so the arrays are deliberately left uninitialized:
  // zeroing them on every update measurably slowed small_read's update
  // p50. Under counting each recorded node is held until resume takes it
  // or release_preds drops it. A descent that stopped at k's tower drops
  // what it recorded and leaves top = 1.
  struct Preds {
    Node* at[kMaxLevel + 1];
    Node* next[kMaxLevel + 1];
    int top = 1;
  };

  // ---- SearchToLevel_SL ----------------------------------------------------
  //
  // Descends to level v, traversing each level above v with the hinted
  // SearchRight and level v with the plain one; returns held consecutive
  // (n1, n2) on level v with n1.key <= k < n2.key (Closed) or
  // n1.key < k <= n2.key (!Closed). It starts at the finger when one
  // holds, else at the head just above the tallest live tower. It never
  // stops at k's tower: ranges and the upper levels of a tower build need
  // level v's pair.
  //
  // Kept out of line: it serves the range scan and the update levels above
  // the recorded ones, which need not carry a copy of the descent.
  template <bool Closed>
  [[gnu::noinline]] std::pair<Node*, Node*> search_to_level(const Key& k,
                                                            int v) const {
    return descend<Closed, false>(k, v, nullptr, stats::tls());
  }

  // search_to_level(k, 1) that records its path in preds, for the updates.
  // Insert's (Closed) stops at k's tower like search_node, returning
  // (nullptr, n); erase's descends to level 1.
  template <bool Closed>
  [[gnu::always_inline]] std::pair<Node*, Node*> search_to_level(
      const Key& k, Preds& preds, stats::StepCounters& c) const {
    return descend<Closed, Closed>(k, 1, &preds, c);
  }

  // Search_SL's descent for find and contains: a held node of k's tower,
  // met on the first level whose search reaches one with its root
  // unmarked, or nullptr when k is absent. A hit therefore skips the
  // levels below that one, and on level 1 the load of the node's
  // successor. Counts the operation (op_search) in the counter block the
  // descent fetched. Kept out of line so find and contains share one copy.
  [[gnu::noinline]] Node* search_node(const Key& k) const {
    auto& c = stats::tls();
    auto [prev, next] = descend<true, true>(k, 1, nullptr, c);
    c.op_search.inc();
    if (prev == nullptr) return next;
    release_pair({prev, next});
    return nullptr;
  }

  // Level v's search result after a recording descent: the recorded pair
  // while it is still linked, unmarked and brackets k (nothing can lie
  // between); else SearchRight from the recorded predecessor, walked left
  // off any mark; above the recorded levels, a plain descent to v.
  // SearchRight is correct from any node of level v with key < k, and
  // backlinks lead to such a node (DESIGN.md §2, "Deviation: updates
  // descend once"). Takes over the references preds held on level v; under
  // counting the kept pair saves a SafeRead and its release.
  template <bool Closed>
  [[gnu::always_inline]] std::pair<Node*, Node*> resume(
      Preds& preds, const Key& k, int v, stats::StepCounters& c) const {
    if (v > preds.top) return search_to_level<Closed>(k, v);
    Node* pred = preds.at[v];
    Node* succ = preds.next[v];
    if (succ != nullptr && !node_le(succ, k, comp_) &&
        pred->succ.load() == typename Base::View{succ, false, false})
      return {pred, succ};
    derived().release(succ);
    this->walk_backlinks(pred, c);
    return search_right<Closed>(k, pred, c);
  }

  // Drops the references preds still holds, on levels lo..top.
  void release_preds(const Preds& preds, int lo) const {
    for (int v = lo; v <= preds.top; ++v)
      release_pair({preds.at[v], preds.next[v]});
  }

  // The level a head descent to level v starts at: just above the tallest
  // live tower, and not below v. The relaxed load may be stale: a start
  // too high or too low costs hops, never a result.
  int descent_top(int v) const noexcept {
    return std::max(
        std::min(top_hint_.load(std::memory_order_relaxed) + 1, kMaxLevel), v);
  }

 private:
  // Insert_SL with an explicit tower height (public insert draws it from
  // the coin-flip rng; tests may pin it). Its descent stops at k's tower,
  // so a duplicate returns from the first level holding it, with no C&S.
  InsertStatus insert_impl(const Key& k, T value, const int tower_height) {
    [[maybe_unused]] auto guard = derived().guard();
    auto& c = stats::tls();
    Preds preds;
    auto [prev, next] = search_to_level<true>(k, preds, c);
    // Early returns: folding them into the build loop's exit measurably
    // slowed churn's updates.
    if (prev == nullptr)  // DUPLICATE_KEY: the descent met k's tower
      return end_unlinked(InsertStatus::kDuplicate, nullptr, next, preds, c);
    Node* root = nullptr;
    try {
      root = derived().make_root(Node::Kind::kInterior, k, std::move(value),
                                 tower_height);
    } catch (const std::bad_alloc&) {  // nothing linked, nothing leaked
      return end_unlinked(InsertStatus::kNoMemory, prev, next, preds, c);
    }
    Node* node = root;  // the node being linked; the builder holds it
    int curr_v = 1;     // its level, the highest level resumed so far
    for (;;) {
      auto [new_prev, result] = this->insert_node(node, prev, next, c);
      derived().release(prev);
      derived().release(next);
      prev = new_prev;
      next = nullptr;
      if (result == Base::InsertResult::kDuplicate) {
        if (curr_v == 1) {
          derived().discard_root(root);  // never published
          return end_unlinked(InsertStatus::kDuplicate, prev, nullptr, preds,
                              c);
        }
        // A same-key tower exists at an upper level: only possible after
        // our root was deleted and the key reinserted. Stop building.
        derived().abandon_upper(root, node);
        node = nullptr;
        break;
      }
      // Reading root is safe: the builder holds node, and node == root or
      // node's tower keeps root alive.
      if (root->succ.load().mark) {
        // Construction interrupted by a deletion of our root (Section 4).
        // Remove the node we just linked above the (now superfluous) tower,
        // then finish: the root WAS inserted, so we report success. The
        // node may have been the only one on its level.
        if (node != root) {
          this->delete_node(prev, node, c);
          lower_top_hint();
        }
        break;
      }
      raise_top_hint(curr_v);
      if (curr_v == tower_height) break;  // tower complete
      LF_CHAOS_POINT(kSkipTowerBuild);
      Node* upper = derived().grow_tower(root, node, k, curr_v + 1);
      if (upper == nullptr) break;  // truncated tower, still valid
      node = upper;
      ++curr_v;
      derived().release(prev);
      std::tie(prev, next) = resume<true>(preds, k, curr_v, c);
    }
    derived().release(prev);
    derived().release(next);
    derived().release(node);
    release_preds(preds, curr_v + 1);
    c.op_insert.inc();
    return InsertStatus::kInserted;
  }

  // Ends an insert that linked nothing: drops what it holds.
  InsertStatus end_unlinked(InsertStatus status, Node* prev, Node* next,
                            const Preds& preds,
                            stats::StepCounters& c) const {
    derived().release(prev);
    derived().release(next);
    release_preds(preds, 2);
    c.op_insert.inc();
    return status;
  }

  void release_pair(std::pair<Node*, Node*> p) const {
    derived().release(p.first);
    derived().release(p.second);
  }

  // The descent behind search_node and both search_to_level overloads;
  // with preds, it records the node it stepped down from on each level.
  // With StopAtKey, it returns (nullptr, n) as soon as a level's search
  // meets n, a node of k's tower whose root it read unmarked (see
  // search_right); a finger that validated on k's own node is such a
  // meeting too. n is held, and preds drops the levels it recorded.
  template <bool Closed, bool StopAtKey>
  [[gnu::always_inline]] std::pair<Node*, Node*> descend(
      const Key& k, int v, Preds* preds, stats::StepCounters& c) const {
    Node* curr = nullptr;
    int curr_v = 0;
    // Only closed searches (insert, find) enter at a finger. Erase descends
    // from the head: its cleanup sweeps the tower's upper levels, and a
    // descent entered low would leave those above it to a plain descent
    // each.
    if constexpr (Closed) {
      std::tie(curr, curr_v) = derived().finger_start(k, v, c);
      // A level-1 finger may sit on k's root, which finger_start read
      // unmarked (FRSkipListRC).
      if (StopAtKey && curr != nullptr && node_eq(curr, k, comp_)) {
        if (preds != nullptr) preds->top = 1;
        return {nullptr, curr};
      }
    }
    if (curr == nullptr) {
      curr_v = descent_top(v);
      curr = derived().acquire(derived().head(curr_v));
    }
    if (preds != nullptr) preds->top = curr_v;
    while (curr_v > v) {
      auto [pred, succ] =
          search_right<false, Node::kHinted, StopAtKey>(k, curr, c);
      if (StopAtKey && pred == nullptr) {  // met k's tower on level curr_v
        if (preds != nullptr) {
          release_preds(*preds, curr_v + 1);
          preds->top = 1;
        }
        return {nullptr, succ};
      }
      derived().save_finger(curr_v, pred, succ);
      // pred's down link keeps its target alive while pred is held.
      curr = derived().acquire(pred->down());
      if (preds != nullptr) {
        preds->at[curr_v] = pred;
        preds->next[curr_v] = succ;
      } else {
        derived().release(succ);
        derived().release(pred);
      }
      --curr_v;
    }
    auto out = search_right<Closed, false, StopAtKey>(k, curr, c);
    if (!StopAtKey || out.first != nullptr)
      derived().save_finger(v, out.first, out.second);
    return out;
  }

  // Called after linking a node at `level` whose root was unmarked. The
  // link C&S, then this seq_cst load, pairs with lower_top_hint's C&S,
  // then its seq_cst reload: one side sees the other, so no linked node
  // ends up above the hint (DESIGN.md §2, "Deviation: the top hint falls").
  void raise_top_hint(int level) const noexcept {
    int top = top_hint_.load();
    while (top < level && !top_hint_.compare_exchange_weak(top, level)) {
    }
  }

  // Lowers the hint one level at a time while its level is empty, after
  // Lea's ConcurrentSkipListMap.tryReduceLevel: a node linked there after
  // the lowering C&S is seen by the reload, which raises the hint back.
  void lower_top_hint() const noexcept {
    int top = top_hint_.load();
    while (top > 1 && level_empty(top)) {
      if (!top_hint_.compare_exchange_weak(top, top - 1)) continue;
      if (!level_empty(top)) {
        raise_top_hint(top);
        return;
      }
      --top;
    }
  }

  // Whether level v holds no node; compares a pointer, dereferences none.
  bool level_empty(int v) const noexcept {
    return derived().head(v)->succ.load().right == derived().tail();
  }

  // Tower heights, drawn per thread; seeded by thread ordinal so 1-thread
  // runs build the same towers in every process (util/random.h).
  static Xoshiro256& height_rng() {
    return thread_ordinal_rng<Derived>(Derived::kHeightSalt);
  }

  // A top-level hint makes descents start just above the tallest live
  // tower, which is what the paper's adaptive head bought. It rises with a
  // tower build and falls after an erase of the tallest tower, so at
  // quiescence no node sits above it (DESIGN.md §2, "Deviation: the top
  // hint falls").
  mutable std::atomic<int> top_hint_{1};
};

}  // namespace lf::fr
