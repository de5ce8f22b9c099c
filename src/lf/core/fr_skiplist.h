// FRSkipList — the lock-free skip list of Fomitchev & Ruppert, PODC 2004,
// Section 4: each level is an instance of the paper's linked-list algorithms
// (flag bit + mark bit + backlink per node), so every level enjoys the same
// recover-instead-of-restart behaviour as FRList.
//
// Architecture (paper Figure 6): each key is represented by a TOWER of
// nodes; the bottom node is the ROOT and represents the whole tower. Tower
// height is chosen by fair coin flips (geometric, capped). Nodes of one
// level form a sorted singly-linked list between the head tower and the
// tail. Every node has:
//
//     key, succ = (right, mark, flag), backlink   — as in FRList
//     next_key    a hint: a copy of succ.right's key (small keys only)
//     level       its level; down() and root() are slot arithmetic
//     value       meaningful in root nodes only
//
// Insertion builds the tower bottom-up and is linearized when the root node
// is inserted. Deletion deletes the root first — a tower whose root is
// marked is SUPERFLUOUS — and then removes the remaining nodes top-down.
// Searches help deletions by physically deleting every superfluous node
// they encounter; Section 4 explains that without this, an adversary can
// force operations to repeatedly traverse a chain of backlinks of length
// Ω(m_E) on the lowest level.
//
// Tower construction can be INTERRUPTED: while a process builds tower Q,
// another process may mark Q's root. The builder checks the root after
// every level it links; if the root got marked it stops, unlinking the node
// it just added (if any), and still reports success (its root made it in).
//
// Departures from the paper's presentation, all noted in DESIGN.md:
//   * The head tower is preallocated at full height (kMaxLevel), as one
//     block like any tower, so the paper's `up` pointers for growing the
//     head are unnecessary. A top-level hint makes searches start just
//     above the tallest live tower, which is what the adaptive head bought;
//     it rises with tower builds and falls after the tallest tower's erase.
//   * One shared tail sentinel serves every level (its succ is never
//     modified, so per-level tail nodes would be indistinguishable).
//   * Insert_SL and Delete_SL descend once. The paper re-runs
//     SearchToLevel_SL from the head for every upper level of a tower
//     build and for the erase cleanup; here the first descent records the
//     node it stepped down from on each level, and each later level's
//     SearchRight starts there, walking backlinks first if it was marked.
//   * Searches stop at their key's tower. The paper's Search_SL descends to
//     level 1 and loads the successor of the node it lands on; here find,
//     contains and the insert's descent return at the first level whose
//     search meets k's node with its root unmarked (k is in the set at that
//     read), and on level 1 without loading that node's successor. Erase
//     still descends to level 1.
//   * Successor-key hint (after "Skiplists with Foresight"): for trivially
//     copyable keys of at most 8 bytes each node keeps a relaxed copy of
//     its successor's key, refreshed after every insert and unlink C&S.
//     A descent above level 1 steps down when k < hint without loading
//     the successor. A stale hint only moves where a level is left, never
//     a result; level 1 and every resumed update search compare real keys.
//   * The detailed pseudocode for the skip-list routines lives in
//     Fomitchev's thesis; these routines are reconstructed from the paper's
//     prose (every step of Section 4) plus the linked-list routines of
//     Figures 3-5 they are explicitly built from, which live in fr_core.h
//     and are the ones FRList runs.
//
// The skip-list routines are fr::SkipCore's (fr_skip_core.h), shared with
// FRSkipListRC. This file keeps only the tower block, the tower_alive
// references, the successor-key hint hooks, validate, census and ranges.
//
// Memory layout: each tower is ONE contiguous 64-byte-aligned block from
// the per-thread pool (mem/pool.h), with the root at slot 0 and level v at
// slot v-1. The root's hot fields (succ, key) sit in the block's first
// cache line, the down-descent stays inside the block, and an insert costs
// one allocation instead of one per level — the cache-miss argument of
// "Skiplists with Foresight". The whole tower is retired in one step when
// its last linked node is unlinked (see the Node comments), which is
// exactly what lets the block be freed as a unit. EXPERIMENTS.md E11
// records the per-level chained and global-heap placements this replaced.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <new>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lf/core/fr_core.h"
#include "lf/core/fr_skip_core.h"
#include "lf/mem/pool.h"
#include "lf/reclaim/epoch.h"
#include "lf/reclaim/reclaimer.h"
#include "lf/sync/succ_field.h"

namespace lf {

namespace fr {

// Whether FRSkipList's node carries the successor-key hint (TowerNode::
// next_key): only for keys one lock-free atomic word can hold, i.e.
// trivially copyable and at most 8 bytes. Other keys (std::string, ...)
// keep the hint-free node and descent.
template <typename Key>
consteval bool hints_successor_key() {
  if constexpr (std::is_trivially_copyable_v<Key> && sizeof(Key) <= 8) {
    return std::atomic<Key>::is_always_lock_free;
  } else {
    return false;
  }
}

// The next_key member of a node without the hint; takes no space.
struct NoSuccessorKey {};

// FRSkipList's node (FRSkipList::Node), one per tower level.
//
// Field order is cache-conscious: the members a search touches on every
// hop (succ, key, next_key, kind, and level for root()) are declared first
// so they pack into the node's first cache line — for a root, also the
// first line of the tower's block. The small immutable fields pack beside
// tower_alive, then root-only bookkeeping and recovery follow. The node
// stores no `down` or root pointer (see slot()), so with 8-byte keys and
// values it is exactly one line, hint included: a height-h tower is h
// lines, and each head level has a line of its own. The pool hands out
// 64-byte-aligned blocks in whole lines, so adjacent blocks never share a
// line without inflating every node with alignas(64).
template <typename Key, typename T>
struct alignas(8) TowerNode {
  enum class Kind : unsigned char { kHead, kInterior, kTail };
  static constexpr bool kHinted = hints_successor_key<Key>();

  sync::SuccField<TowerNode> succ;
  Key key;
  // Successor-key hint: a relaxed copy of succ.right's key (for the tail,
  // any value), so a descent can decide right-vs-down at this node without
  // loading the successor. Only ever a hint: it lags succ while a writer
  // refreshes it, and only searches above level 1 read it, where a stale
  // value costs speed, never a result (DESIGN.md §2, "Deviation:
  // successor-key hint").
  [[no_unique_address]] std::conditional_t<kHinted, std::atomic<Key>,
                                           NoSuccessorKey> next_key;
  Kind kind;
  int level;           // 1-based; immutable
  int planned_height;  // slots in this node's block (roots: the coin-flip
                       // height; head: kMaxLevel; tail: 1); 0 for upper nodes

  // Tower-retirement bookkeeping, meaningful on ROOT nodes only.
  //
  // Per-node retirement at unlink time would be unsound here: a node
  // unlinked at level v stays reachable by descending from its
  // still-linked level v+1 sibling, so a reader pinned AFTER the unlink
  // could still dereference it. Instead the whole tower is retired in one
  // step when its last linked node is unlinked: any reader that can reach
  // any tower node (by list traversal, backlink, or down-descent) was
  // necessarily pinned before that single retire point, so one grace
  // period covers every node of the tower.
  //
  // tower_alive counts nodes that are linked or about to be linked (the
  // inserter increments before attempting to link, and pre-publishes
  // tower_top, so the count can only reach zero when no link attempt is
  // in flight and every linked node has been unlinked). The unlinker or
  // abandoner that drops it to zero retires the tower's block, whose
  // deleter destroys the nodes from tower_top's level down to the root.
  std::atomic<int> tower_alive{1};
  std::atomic<TowerNode*> tower_top{nullptr};

  T value;  // meaningful in root nodes only
  std::atomic<TowerNode*> backlink{nullptr};

  TowerNode(Kind k, int lvl, Key key_arg, T value_arg)
      : key(std::move(key_arg)),
        kind(k),
        level(lvl),
        planned_height(0),
        value(std::move(value_arg)) {
    if (lvl == 1) tower_top.store(this, std::memory_order_relaxed);
  }

  // The level-v slot of this node's block, (v - level) slots away: a tower
  // is one block with level v at slot v-1, so this is the paper's `down`
  // and root links, written once. The slot may not hold a constructed
  // node yet (the tower build places upper nodes into it).
  TowerNode* slot(int v) const {
    auto* self = reinterpret_cast<char*>(const_cast<TowerNode*>(this));
    return reinterpret_cast<TowerNode*>(
        self + static_cast<std::ptrdiff_t>(sizeof(TowerNode)) * (v - level));
  }
  TowerNode* down() const { return slot(level - 1); }  // level >= 2 only
  TowerNode* root() const { return slot(1); }
};

// One line per tower level (see TowerNode); the hint must not add a second.
static_assert(sizeof(TowerNode<std::uint64_t, std::uint64_t>) == 64);

}  // namespace fr

template <typename Key, typename T = Key, typename Compare = std::less<Key>,
          typename Reclaimer = reclaim::EpochReclaimer>
class FRSkipList
    : private fr::SkipCore<
          FRSkipList<Key, T, Compare, Reclaimer>,
          fr::Core<FRSkipList<Key, T, Compare, Reclaimer>,
                   fr::TowerNode<Key, T>, Key, Compare, fr::kSkipSites>> {
 public:
  using key_type = Key;
  using mapped_type = T;
  using key_compare = Compare;
  using Node = fr::TowerNode<Key, T>;

 private:
  using Core = fr::Core<FRSkipList, Node, Key, Compare, fr::kSkipSites>;
  using Skip = fr::SkipCore<FRSkipList, Core>;
  using View = typename Core::View;
  friend Core;
  friend Skip;

  using Core::comp_;
  using Skip::kMaxLevel;

 public:
  using typename Core::ValidationReport;
  using typename Skip::InsertStatus;
  using Skip::contains;
  using Skip::erase;
  using Skip::find;
  using Skip::insert;
  using Skip::insert_checked;
  using Skip::insert_with_height;
  using Skip::kMaxTowerHeight;
  using Skip::set_top_level_hint_for_testing;
  using Skip::top_level_hint;

  FRSkipList() : FRSkipList(Compare{}, Reclaimer{}) {}
  explicit FRSkipList(Reclaimer reclaimer)
      : FRSkipList(Compare{}, std::move(reclaimer)) {}
  FRSkipList(Compare comp, Reclaimer reclaimer)
      : Skip(std::move(comp)), reclaimer_(std::move(reclaimer)) {
    // The sentinels are tower blocks too: the tail one slot, the head
    // kMaxLevel slots with head(v) at slot v-1, so down() descends it like
    // any tower.
    tail_ = make_root(Node::Kind::kTail, Key{}, T{}, 1);
    head_ = make_root(Node::Kind::kHead, Key{}, T{}, kMaxLevel);
    for (int v = 2; v <= kMaxLevel; ++v)
      ::new (head_->slot(v)) Node(Node::Kind::kHead, v, Key{}, T{});
    head_->tower_top.store(head(kMaxLevel), std::memory_order_relaxed);
    for (int v = 1; v <= kMaxLevel; ++v) {
      head(v)->succ.store_unsynchronized(View{tail_, false, false});
      on_right_changed(head(v), false);
    }
  }

  // Destruction requires quiescence. Each level-1 node is a tower root
  // owning one block for its whole tower.
  ~FRSkipList() {
    Node* n = head_->succ.load().right;
    while (n->kind != Node::Kind::kTail) {
      Node* next = n->succ.load().right;
      destroy_tower(n);
      n = next;
    }
    destroy_tower(head_);
    destroy_tower(tail_);
  }

  FRSkipList(const FRSkipList&) = delete;
  FRSkipList& operator=(const FRSkipList&) = delete;

  // ---- Snapshot / diagnostics ------------------------------------------

  // Count of regular root nodes. O(n); approximate under concurrency.
  std::size_t size() const {
    std::size_t n = 0;
    for_each([&](const Key&, const T&) { ++n; });
    return n;
  }

  bool empty() const { return size() == 0; }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    for (Node* p = head_->succ.load().right; p->kind != Node::Kind::kTail;
         p = p->succ.load().right) {
      if (!p->succ.load().mark) fn(p->key, p->value);
    }
  }

  std::vector<Key> keys() const {
    std::vector<Key> out;
    for_each([&](const Key& k, const T&) { out.push_back(k); });
    return out;
  }

  // Visits every regular entry with lo <= key < hi, in key order. The
  // skip list finds the range start in O(log n) expected and then walks
  // level 1 — the range-scan pattern LSM memtables and index scans use.
  // Weakly consistent under concurrency like all iteration here.
  template <typename Fn>
  void for_each_range(const Key& lo, const Key& hi, Fn&& fn) const {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    auto [prev, curr] =
        this->template search_to_level<false>(lo, 1);  // prev.key < lo
    (void)prev;
    for (Node* p = curr; p->kind != Node::Kind::kTail;
         p = p->succ.load().right) {
      if (!node_lt(p, hi, comp_)) break;  // p.key >= hi
      if (!p->succ.load().mark) fn(p->key, p->value);
    }
  }

  // Number of regular keys in [lo, hi). O(log n + range length) expected.
  std::size_t count_range(const Key& lo, const Key& hi) const {
    std::size_t n = 0;
    for_each_range(lo, hi, [&](const Key&, const T&) { ++n; });
    return n;
  }

  // The smallest regular key and its value, or nullopt when empty. O(1+d)
  // where d is the number of logically deleted nodes at the front — the
  // accessor priority queues need (see lf/extras/priority_queue.h).
  std::optional<std::pair<Key, T>> first() const {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    for (Node* p = head_->succ.load().right; p->kind != Node::Kind::kTail;
         p = p->succ.load().right) {
      if (!p->succ.load().mark) return std::make_pair(p->key, p->value);
    }
    return std::nullopt;
  }

  // ---- Invariant validation & census (tests / E6; quiescent only) ------

  // fr::SkipCore::validate_towers, plus the tower block's slots and, for
  // hinted keys, every linked node's successor-key hint (heads included):
  // each successful C&S refreshes it until it matches, so at quiescence it
  // equals the successor's key.
  ValidationReport validate() const {
    for (int v = 1; v <= kMaxLevel; ++v) {
      if (const char* error = hint_error(head(v))) return {false, 0, error};
    }
    return this->validate_towers([&](const Node* n, int v) -> const char* {
      if (const char* error = hint_error(n)) return error;
      if (n->level != v) return "node on wrong level";
      if (v > n->root()->planned_height) return "node outside its block";
      if (v > 1 && n->down()->level != v - 1) return "down slot broken";
      return nullptr;
    });
  }

  // Tower census for experiment E6: for every linked tower, its observed
  // height and its planned (coin-flip) height. Quiescent only.
  struct TowerCensus {
    std::map<int, std::size_t> height_counts;   // observed height -> towers
    std::size_t full = 0;        // observed == planned
    std::size_t incomplete = 0;  // observed < planned (interrupted builds)
    std::size_t towers = 0;
  };

  TowerCensus census() const {
    TowerCensus out;
    std::unordered_map<const Node*, int> height;
    for (int v = 1; v <= kMaxLevel; ++v) {
      for (const Node* p = head(v)->succ.load().right;
           p->kind != Node::Kind::kTail; p = p->succ.load().right) {
        auto [it, fresh] = height.emplace(p->root(), v);
        if (!fresh && v > it->second) it->second = v;
      }
    }
    for (const auto& [root, h] : height) {
      ++out.height_counts[h];
      ++out.towers;
      if (h >= root->planned_height) {
        ++out.full;
      } else {
        ++out.incomplete;
      }
    }
    return out;
  }

  Node* head(int level) const { return head_->slot(level); }
  Node* tail() const noexcept { return tail_; }

 private:
  // The hooks of the skip-list layer (fr_skip_core.h).
  static constexpr std::uint64_t kHeightSalt = 0x9e3779b97f4a7c15ULL;
  auto guard() const { return reclaimer_.guard(); }

  // A never-published root: destroy the block in place.
  static void discard_root(Node* root) { destroy_tower(root); }

  // The block's slot count; the builder never links above it.
  static int tower_levels(const Node* root) { return root->planned_height; }

  // Announce the upcoming link BEFORE attempting it (see Node docs): while
  // tower_alive includes the new node, nobody can retire the tower, so
  // pre-publishing tower_top is race-free. If the tower already died
  // (count reached zero), it must NOT be resurrected: stop building.
  Node* grow_tower(Node* root, Node*, const Key& k, int v) const {
    if (!acquire_tower_ref(root)) return nullptr;
    Node* node;
    try {
      node = ::new (root->slot(v)) Node(Node::Kind::kInterior, v, k, T{});
    } catch (const std::bad_alloc&) {
      // Out of memory above a linked root: give back the announced
      // reference and stop with a truncated (still valid) tower.
      release_tower_ref(root);
      return nullptr;
    }
    root->tower_top.store(node, std::memory_order_release);
    return node;
  }

  // Abandon a never-linked upper node: roll tower_top back to the highest
  // linked node, destroy it in place (its slot dies with the block) and
  // release the reference taken before the attempt.
  void abandon_upper(Node* root, Node* node) const {
    root->tower_top.store(node->down(), std::memory_order_release);
    node->~Node();
    release_tower_ref(root);
  }

  // The core's disposal hook: unlinking a tower node drops one reference
  // on its tower, which the last one retires (see Node docs).
  void on_unlinked(Node* del) const { release_tower_ref(del->root()); }

  // The successor-key hint a node whose successor is `right` carries once
  // refreshed: right's key, or for the tail any value; max() makes an
  // arithmetic-key descent step down there without loading the tail.
  static Key hint_for(const Node* right) {
    if (right->kind != Node::Kind::kTail) return right->key;
    if constexpr (std::is_arithmetic_v<Key>) {
      return std::numeric_limits<Key>::max();
    } else {
      return Key{};
    }
  }

  // The core's right-pointer hook, run by the thread whose C&S (or
  // pre-publication store) just changed n's right pointer: refresh n's
  // successor-key hint until it matches a right pointer read after it was
  // written. The exchange is a read-modify-write, so the last hint write
  // to n reads from, and synchronizes with, every earlier refresh of n:
  // whichever refresh writes last sees the last C&S on n.succ and stores
  // its successor's key, so hints are exact at quiescence. Another retry
  // means another thread's C&S on n.succ succeeded meanwhile, so the loop
  // is lock-free. An unpublished node is this thread's alone, and the C&S
  // that publishes it also publishes a plain store.
  void on_right_changed(Node* n, bool published) const {
    if constexpr (Node::kHinted) {
      Node* right = n->succ.load().right;
      if (!published) {
        n->next_key.store(hint_for(right), std::memory_order_relaxed);
        return;
      }
      for (;;) {
        n->next_key.exchange(hint_for(right), std::memory_order_acq_rel);
        Node* again = n->succ.load().right;
        if (again == right) return;
        right = again;
      }
    }
  }

  // validate()'s hint check: nullptr, or why n's hint is not its
  // successor's key.
  const char* hint_error(const Node* n) const {
    if constexpr (Node::kHinted) {
      const Key want = hint_for(n->succ.load().right);
      const Key have = n->next_key.load(std::memory_order_relaxed);
      if (comp_(want, have) || comp_(have, want))
        return "successor-key hint differs from successor at quiescence";
    }
    return nullptr;
  }

  // Take a reference on a tower for an upcoming link attempt; fails (and
  // must abort the attempt) if the tower is already fully unlinked, since a
  // zero count means retirement has begun and may not be undone.
  bool acquire_tower_ref(Node* root) const {
    int alive = root->tower_alive.load(std::memory_order_acquire);
    while (alive > 0) {
      if (root->tower_alive.compare_exchange_weak(alive, alive + 1,
                                                  std::memory_order_acq_rel))
        return true;
    }
    return false;
  }

  // Drop one reference on a tower; the thread that releases the last one
  // retires the whole tower's block in a single step (see Node docs).
  void release_tower_ref(Node* root) const {
    if (root->tower_alive.fetch_sub(1, std::memory_order_acq_rel) != 1)
      return;
    reclaimer_.retire_with(root, &destroy_tower);
  }

  // ---- Tower blocks ------------------------------------------------------
  //
  // A tower is one pool block of planned_height node slots: the root at
  // slot 0, level v at slot v-1 (Node::slot). Upper nodes are constructed
  // in their slot lazily as the build climbs, so a block may hold fewer
  // nodes than slots; the slots from the root up to tower_top's level hold
  // exactly the constructed ones.

  static std::size_t tower_bytes(int height) {
    return sizeof(Node) * static_cast<std::size_t>(height);
  }

  // Allocates the block and constructs the root in slot 0. If the root's
  // construction throws (e.g. copying the key), the block goes back too.
  static Node* make_root(typename Node::Kind kind, const Key& k, T value,
                         int planned_height) {
    void* block = mem::pool_allocate(tower_bytes(planned_height));
    Node* root;
    try {
      root = ::new (block) Node(kind, 1, k, std::move(value));
    } catch (...) {
      mem::pool_deallocate(block, tower_bytes(planned_height));
      throw;
    }
    root->planned_height = planned_height;
    return root;
  }

  // The tower's one deleter, also for an unpublished root and the
  // sentinels: destroys every constructed node top-down (abandoned slots
  // were already destroyed and dropped below tower_top), then frees the
  // block once.
  static void destroy_tower(void* p) {
    Node* root = static_cast<Node*>(p);
    const std::size_t bytes = tower_bytes(root->planned_height);
    for (int v = root->tower_top.load(std::memory_order_acquire)->level;
         v >= 1; --v)
      root->slot(v)->~Node();
    mem::pool_deallocate(p, bytes);
  }

  mutable Reclaimer reclaimer_;
  Node* head_;  // head(1), the root of the head tower's block
  Node* tail_;

  static_assert(reclaim::reclaimer_for<Reclaimer, Node>);
  // Tower retirement goes through destroy_tower, a type-erased deleter, so
  // the reclaimer must support deleter-based retirement (epoch and leaky do).
  static_assert(reclaim::deferred_reclaimer<Reclaimer>);
};

}  // namespace lf
