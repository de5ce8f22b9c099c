// FRSkipListRC — the paper's skip list under Valois-style reference
// counting, completing the Section 5 suggestion ("applicable to both our
// linked lists and our skip lists, because there are no cycles among the
// physically deleted nodes").
//
// Same algorithm as FRSkipList (towers, bottom-up insert, root-first
// delete, superfluous-tower cleanup by searches). The per-level steps are
// fr::Core's (fr_core.h), shared with the other three FR structures; the
// counting protocol and the type-stable arena are rc::Core's
// (fr_rc_core.h), shared with FRListRC. This file keeps the level search,
// the descent, tower building, erase's cleanup descent and the per-level
// finger. The counted-pointer invariant:
//
//   count(N) = level-list links to N (succ fields)      [carry-over rules]
//            + backlink fields targeting N              [CAS-once, +1]
//            + down fields targeting N                  [immutable, +1 at
//            + tower_root fields targeting N             node creation]
//            + live thread references + in-flight SafeRead ghost pairs.
//
// A pleasant consequence: the whole tower-retirement protocol the epoch
// variant needs (tower_alive / tower_top, see fr_skiplist.h) disappears.
// Descending `down` from a held node is intrinsically safe — the held node
// owns a counted link to its lower neighbour — and each node is recycled
// individually the instant nothing can reach it. The cost is the usual
// reference-counting toll: shared RMWs on node counts per traversal hop
// (experiment E9).
//
// The down-pointer acyclicity (upper -> lower -> ... -> root, root points
// nowhere upward) is what guarantees release cascades terminate, exactly
// the property the paper cites.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "lf/chaos/chaos.h"
#include "lf/core/fr_rc_core.h"
#include "lf/instrument/counters.h"
#include "lf/sync/finger.h"
#include "lf/util/random.h"

namespace lf {

namespace rc {
// A tower node: its `down` and `tower_root` links are immutable, counted
// at creation and released when the node dies. A root's tower_root is the
// node itself, which is not counted.
template <typename Key, typename T>
struct TowerNode : NodeBase<TowerNode<Key, T>, Key, T> {
  TowerNode* down = nullptr;
  TowerNode* tower_root = nullptr;

  template <typename Fn>
  void for_each_extra_link(Fn&& fn) const {
    fn(down);
    if (tower_root != this) fn(tower_root);
  }
};
}  // namespace rc

// Searches start from the thread-local finger cache: the shared way cache
// of sync/finger.h with one 4-way set per level on the lowest
// kFingerLevels levels, each way remembering a recent descent position
// (pred) and its bracket keys. Probing is deref-free over cached bracket
// keys; only the way that wins a level's probe pays the counted
// re-acquisition (count + reuse stamp, see rc::Core::finger_try_hold),
// whose stamp equality retroactively validates the cached keys — so a
// search pays at most one counted hold per level it tries. A marked pred
// can recover through backlinks at ANY level (every node is individually
// counted, so safe reads need no retired-address argument). Erase's
// tower-cleanup pass keeps its full head descent (min_finger_level =
// kMaxLevel), which preserves the superfluous-tower sweep above level 1.
template <typename Key, typename T = Key, typename Compare = std::less<Key>>
class FRSkipListRC
    : private rc::Core<FRSkipListRC<Key, T, Compare>, rc::TowerNode<Key, T>,
                       Key, T, Compare, fr::kSkipSites> {
 public:
  using key_type = Key;
  using mapped_type = T;
  using key_compare = Compare;
  using Node = rc::TowerNode<Key, T>;

  // Levels, counting level 1 (the list of every key); towers reach at most
  // the level below the top, so erase's cleanup always descends from above.
  static constexpr int kMaxLevel = 24;
  static constexpr int kMaxTowerHeight = kMaxLevel - 1;

 private:
  using Core = rc::Core<FRSkipListRC, Node, Key, T, Compare, fr::kSkipSites>;
  using View = typename Core::View;
  using FlagStatus = typename Core::FlagStatus;
  using InsertResult = typename Core::InsertResult;
  friend Core;
  friend typename Core::FrCore;

  using Core::abandon;
  using Core::acquire;
  using Core::allocate;
  using Core::comp_;
  using Core::delete_node;
  using Core::finger_try_hold;
  using Core::help_flagged;
  using Core::insert_node;
  using Core::release;
  using Core::safe_read_succ;
  using Core::try_flag;
  using Core::walk_backlinks;

 public:
  using typename Core::ValidationReport;
  using Core::arena_count;
  using Core::free_count;
  using Core::size;
  using Core::validate_accounting;

  FRSkipListRC() {
    tail_ = allocate_node(Node::Kind::kTail, Key{}, T{}, nullptr, nullptr);
    Node* below = nullptr;
    for (int v = 1; v <= kMaxLevel; ++v) {
      head_[v] = allocate_node(Node::Kind::kHead, Key{}, T{}, below, nullptr);
      head_[v]->succ.store_unsynchronized(View{tail_, false, false});
      tail_->refct.fetch_add(1, std::memory_order_relaxed);  // head link
      below = head_[v];
    }
    top_hint_.store(1, std::memory_order_relaxed);
  }

  // ---- dictionary operations --------------------------------------------

  bool insert(const Key& k, T value) {
    auto [prev, next] = search_to_level<true>(k, 1);
    if (node_eq(prev, k, comp_)) {
      release(prev);
      release(next);
      stats::tls().op_insert.inc();
      return false;
    }
    const int tower_height = tls_rng().tower_height(kMaxTowerHeight);
    Node* root = allocate_node(Node::Kind::kInterior, k, std::move(value),
                               nullptr, nullptr);
    Node* node = root;  // the builder's creator reference travels in `node`
    int curr_v = 1;
    for (;;) {
      auto [new_prev, result] = insert_node(node, prev, next);
      release(prev);
      release(next);
      prev = new_prev;  // counted
      next = nullptr;
      if (result == InsertResult::kDuplicate) {
        if (curr_v == 1) {
          release(prev);
          abandon(node);  // the root: never published, nobody else has it
          stats::tls().op_insert.inc();
          return false;
        }
        // A same-key tower appeared at an upper level: our root must have
        // been deleted and the key reinserted. Stop building.
        abandon(node);
        node = nullptr;
        break;
      }
      // Reading root is safe: node == root (creator ref) or node's
      // immutable tower_root link keeps root alive while we hold node.
      if (root->succ.load().mark) {
        // Interrupted by a concurrent deletion of our root (Section 4):
        // undo the node just linked above the superfluous tower; done.
        if (node != root) delete_node(prev, node);
        break;
      }
      raise_top_hint(curr_v);
      if (curr_v == tower_height) break;
      ++curr_v;
      LF_CHAOS_POINT(kSkipTowerBuild);
      Node* upper = allocate_node(Node::Kind::kInterior, k, T{}, node, root);
      release(node);  // lower's creator ref; upper's down-link keeps it
      node = upper;
      release(prev);
      std::tie(prev, next) = search_to_level<true>(k, curr_v);
    }
    release(prev);
    release(next);
    release(node);  // creator ref of the top node
    stats::tls().op_insert.inc();
    return true;
  }

  bool erase(const Key& k) {
    auto [prev, del] = search_to_level<false>(k, 1);
    bool erased = false;
    if (node_eq(del, k, comp_)) {
      erased = delete_node(prev, del);
      if (erased) {
        // Tower cleanup: full head descent (min_finger_level = kMaxLevel),
        // so the superfluous-tower sweep starts above every tower.
        auto [p2, n2] = search_to_level<true>(k, 2, kMaxLevel);
        release(p2);
        release(n2);
      }
    }
    release(prev);
    release(del);
    stats::tls().op_erase.inc();
    return erased;
  }

  std::optional<T> find(const Key& k) const {
    auto [curr, next] = search_to_level<true>(k, 1);
    std::optional<T> out;
    if (node_eq(curr, k, comp_)) out.emplace(curr->value);
    release(curr);
    release(next);
    stats::tls().op_search.inc();
    return out;
  }

  bool contains(const Key& k) const { return find(k).has_value(); }

  // ---- diagnostics (quiescent only) ---------------------------------------

  // The paper's INV 1-5 on every level (fr::Core::validate_level), plus the
  // tower structure: each upper node's down link names a node of the level
  // below with the same key, and no superfluous node (root marked) is
  // still linked. node_count counts nodes across all levels.
  ValidationReport validate() const {
    ValidationReport rep;
    std::unordered_map<const Node*, int> level_of;  // linked nodes so far
    for (int v = 1; v <= kMaxLevel; ++v) {
      auto tower_error = [&](const Node* n) -> const char* {
        level_of[n] = v;
        if (n->tower_root->succ.load().mark)
          return "superfluous node linked at quiescence";
        if (v == 1) return nullptr;
        const auto down = level_of.find(n->down);
        if (down == level_of.end() || down->second != v - 1)
          return "down link not one level lower";
        if (!node_eq(n->down, n->key, comp_))
          return "tower keys differ across levels";
        return nullptr;
      };
      if (!this->validate_level(head_[v], rep, tower_error)) break;
    }
    return rep;
  }

 private:
  std::span<Node* const> level_heads() const {
    return std::span<Node* const>(head_).subspan(1);
  }

  // A node with its immutable down and tower_root links (null root: the
  // node is its own root), each counted at creation.
  Node* allocate_node(typename Node::Kind kind, Key k, T v, Node* down,
                      Node* root) const {
    Node* n = allocate(kind, std::move(k), std::move(v), [&](Node* fresh) {
      fresh->down = down;
      fresh->tower_root = root == nullptr ? fresh : root;
    });
    if (down != nullptr) acquire(down);
    if (root != nullptr) acquire(root);
    return n;
  }

  // Seeded by thread ordinal, as FRSkipList::tls_rng is, so 1-thread
  // runs build the same towers in every process.
  static Xoshiro256& tls_rng() {
    static std::atomic<std::uint64_t> next_ordinal{0};
    thread_local Xoshiro256 rng(
        0xa0761d6478bd642fULL ^
        next_ordinal.fetch_add(1, std::memory_order_relaxed));
    return rng;
  }

  void raise_top_hint(int level) const noexcept {
    int top = top_hint_.load(std::memory_order_relaxed);
    while (top < level && !top_hint_.compare_exchange_weak(
                              top, level, std::memory_order_relaxed)) {
    }
  }

  // ---- finger (search hint) layer ------------------------------------------

  static constexpr int kFingerLevels = 4;

  // The shared way cache (sync/finger.h), set lvl - 1 for level lvl. Each
  // way's node is a pred and its proof the pred's reuse stamp; the cached
  // keys are trusted only after finger_try_hold succeeds with an equal
  // stamp (same incarnation => same key).
  using FingerCache = sync::FingerCache<Node, Key,
                                        chaos::Site::kSkipFingerReplace,
                                        kFingerLevels>;

  // Level the plain head descent would enter at.
  int head_entry_level(int v) const noexcept {
    int curr_v = top_hint_.load(std::memory_order_relaxed) + 1;
    if (curr_v > kMaxLevel) curr_v = kMaxLevel;
    if (curr_v < v) curr_v = v;
    return curr_v;
  }

  // Picks a validated, COUNTED entry point: (start node, level), or
  // (nullptr, 0) for a head descent. Scans cached levels from
  // max(v, min_level) upward, probing each level's ways deref-free for the
  // tightest bracket containing k and paying a counted finger_try_hold only
  // for the probe winner; a hold/stamp failure kills the way and falls
  // through to the next level. Hit/miss accounting covers exactly the
  // finger-eligible searches (lo <= kFingerLevels).
  template <bool Closed>
  std::pair<Node*, int> finger_start(const Key& k, int v,
                                     int min_level) const {
    auto& c = stats::tls();
    const int lo = min_level > v ? min_level : v;
    if (lo > kFingerLevels) return {nullptr, 0};  // never eligible
    auto& cache = FingerCache::of(finger_id_);
    for (int lvl = lo; lvl <= kFingerLevels; ++lvl) {
      auto* set = cache.find(finger_id_, lvl - 1);
      if (set == nullptr) break;  // slot holds another instance
      // Equality (pred.key == k) is admitted only for a Closed search
      // entering at its own target when that target is level 1: there the
      // cached pred is a tower ROOT, so "unmarked" below directly implies
      // it is not superfluous. At upper levels an equal-key start could
      // sit ON a superfluous node and search_right — which only examines
      // successors — would never physically delete it. Only the bracket
      // way is used: a pred whose successor lies left of k would mean an
      // unbounded rightward walk, worse than descending from above.
      const bool allow_eq = Closed && lvl == v && v == 1;
      const int w = set->probe(k, allow_eq, comp_).bracket;
      if (w < 0) continue;
      auto& e = set->way[w];
      if (!finger_try_hold(e.node, e.proof)) {
        e.node = nullptr;  // recycled since the save: dead way
        continue;
      }
      Node* start = e.node;
      LF_CHAOS_POINT(kSkipFingerValidate);
      // Marked pred: recover leftward. Sound at ANY level here — every
      // node is individually counted, so the walk's safe reads need no
      // retired-address argument.
      walk_backlinks(start);
      if (start->succ.load().mark) {
        release(start);
        continue;  // try the next level up
      }
      set->hit(w);
      c.finger_hit.inc();
      const int head_v = head_entry_level(v);
      if (head_v > lvl)
        c.finger_skip.inc(static_cast<std::uint64_t>(head_v - lvl));
      return {start, lvl};
    }
    LF_CHAOS_POINT(kSkipFingerFallback);
    c.finger_miss.inc();
    return {nullptr, 0};
  }

  // Remember the (pred, succ) pair a level's SearchRight returned — both
  // held by the caller — as a way of this level's set. Only raw pointers,
  // keys, and stamps are kept; no count survives the caller's release.
  void save_finger(int lvl, Node* pred, Node* succ) const {
    if (lvl > kFingerLevels) return;
    FingerCache::of(finger_id_).claim(finger_id_, lvl - 1).save(
        pred, succ, pred->stamp.load(std::memory_order_acquire));
  }

  // ---- skip-list search (counted) ------------------------------------------

  // Returns counted (n1, n2) on level v. min_finger_level lets erase's
  // tower-cleanup sweep refuse finger entry points entirely (it passes
  // kMaxLevel): the sweep must descend from above the tower it clears, and
  // the RC variant does not track tower tops, so any finger entry could
  // skip superfluous nodes above it.
  template <bool Closed>
  std::pair<Node*, Node*> search_to_level(const Key& k, int v,
                                          int min_finger_level = 0) const {
    auto [curr, curr_v] = finger_start<Closed>(k, v, min_finger_level);
    if (curr == nullptr) {
      curr_v = head_entry_level(v);
      curr = acquire(head_[curr_v]);
    }
    while (curr_v > v) {
      auto [c2, n2] = search_right<false>(k, curr);  // consumes curr
      save_finger(curr_v, c2, n2);
      release(n2);
      // Descend: c2->down is an immutable counted link, so its target is
      // alive while we hold c2; take a reference before letting c2 go.
      Node* below = acquire(c2->down);
      release(c2);
      curr = below;
      --curr_v;
    }
    auto out = search_right<Closed>(k, curr);
    save_finger(v, out.first, out.second);
    return out;
  }

  // The paper's SearchRight (the core's level search). Consumes curr;
  // returns counted (n1, n2).
  template <bool Closed>
  std::pair<Node*, Node*> search_right(const Key& k, Node* curr) const {
    auto& c = stats::tls();
    auto advances = [&](const Node* n) {
      return Closed ? node_le(n, k, comp_) : node_lt(n, k, comp_);
    };
    Node* next = safe_read_succ(curr);
    for (;;) {
      // Superfluous-tower removal (root marked), trigger key <= k in both
      // modes — see fr_skiplist.h for why.
      while (next->kind == Node::Kind::kInterior && node_le(next, k, comp_) &&
             next->tower_root->succ.load().mark) {
        auto [new_curr, status, won] = try_flag(curr, next);  // eats curr
        curr = new_curr;
        if (status == FlagStatus::kIn) help_flagged(curr, next);
        release(next);
        next = safe_read_succ(curr);
        c.next_update.inc();
      }
      if (!advances(next)) break;
      LF_CHAOS_POINT(kSkipSearchStep);
      release(curr);
      curr = next;
      c.curr_update.inc();
      next = safe_read_succ(curr);
    }
    return {curr, next};
  }

  std::array<Node*, kMaxLevel + 1> head_{};
  Node* tail_;
  mutable std::atomic<int> top_hint_{1};
  const std::uint64_t finger_id_ = sync::next_finger_instance();
};

}  // namespace lf
