// FRSkipListRC — the paper's skip list under Valois-style reference
// counting, completing the Section 5 suggestion ("applicable to both our
// linked lists and our skip lists, because there are no cycles among the
// physically deleted nodes").
//
// Same algorithm as FRSkipList (towers, bottom-up insert, root-first
// delete, superfluous-tower cleanup by searches). The per-level steps are
// fr::Core's (fr_core.h), shared with the other three FR structures; the
// counting protocol and the type-stable arena are rc::Core's
// (fr_rc_core.h), shared with FRListRC; the skip-list routines are
// fr::SkipCore's (fr_skip_core.h), shared with FRSkipList; the finger
// entry is fr::Core's, shared with both lists. This file keeps only the
// counted below/tower_root links, the per-level finger loop, the
// constructor and validate. The counted-pointer invariant:
//
//   count(N) = level-list links to N (succ fields)      [carry-over rules]
//            + backlink fields targeting N              [CAS-once, +1]
//            + below fields targeting N                 [immutable, +1 at
//            + tower_root fields targeting N             node creation]
//            + live thread references + in-flight SafeRead ghost pairs.
//
// A pleasant consequence: the whole tower-retirement protocol the epoch
// variant needs (tower_alive / tower_top, see fr_skiplist.h) disappears.
// Descending down() from a held node is intrinsically safe — the held node
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
#include <span>
#include <unordered_map>
#include <utility>

#include "lf/chaos/chaos.h"
#include "lf/core/fr_rc_core.h"
#include "lf/core/fr_skip_core.h"
#include "lf/instrument/counters.h"
#include "lf/sync/finger.h"

namespace lf {

namespace rc {
// A tower node: its `below` and `tower_root` links are immutable, counted
// at creation and released when the node dies. A root's tower_root is the
// node itself, which is not counted.
template <typename Key, typename T>
struct TowerNode : NodeBase<TowerNode<Key, T>, Key, T> {
  static constexpr bool kHinted = false;  // no successor-key hint
  TowerNode* below = nullptr;
  TowerNode* tower_root = nullptr;
  int height = 0;  // roots: the drawn tower height; immutable

  TowerNode* down() const { return below; }
  TowerNode* root() const { return tower_root; }

  template <typename Fn>
  void for_each_extra_link(Fn&& fn) const {
    fn(below);
    if (tower_root != this) fn(tower_root);
  }
};
}  // namespace rc

// Closed searches (insert, find) start from the thread-local finger cache:
// the shared way cache of sync/finger.h with one 4-way set per level on the
// lowest kFingerLevels levels, each way remembering a recent descent
// position (pred) and its bracket keys. Probing is deref-free over cached
// bracket keys; only the way that wins a level's probe pays the counted
// re-acquisition (count + reuse stamp, see rc::Core::finger_try_hold),
// whose stamp equality retroactively validates the cached keys — so a
// search pays at most one counted hold per level it tries. A marked pred
// can recover through backlinks at ANY level (every node is individually
// counted, so safe reads need no retired-address argument). Erase descends
// from the head (fr_skip_core.h), so its cleanup resumes every level of
// the tower from a recorded predecessor.
template <typename Key, typename T = Key, typename Compare = std::less<Key>>
class FRSkipListRC
    : private fr::SkipCore<FRSkipListRC<Key, T, Compare>,
                           rc::Core<FRSkipListRC<Key, T, Compare>,
                                    rc::TowerNode<Key, T>, Key, T, Compare,
                                    fr::kSkipSites>> {
 public:
  using key_type = Key;
  using mapped_type = T;
  using key_compare = Compare;
  using Node = rc::TowerNode<Key, T>;

 private:
  using Core = rc::Core<FRSkipListRC, Node, Key, T, Compare, fr::kSkipSites>;
  using Skip = fr::SkipCore<FRSkipListRC, Core>;
  using View = typename Core::View;
  friend Core;
  friend typename Core::FrCore;
  friend Skip;

  using Core::acquire;
  using Core::allocate;
  using Core::comp_;
  using Core::release;
  using Skip::kMaxLevel;

 public:
  using typename Core::ValidationReport;
  using typename Skip::InsertStatus;
  using Core::arena_count;
  using Core::free_count;
  using Core::size;
  using Core::validate_accounting;
  using Skip::contains;
  using Skip::erase;
  using Skip::find;
  using Skip::insert;
  using Skip::insert_checked;
  using Skip::insert_with_height;
  using Skip::kMaxTowerHeight;
  using Skip::set_top_level_hint_for_testing;
  using Skip::top_level_hint;

  FRSkipListRC() {
    tail_ = allocate_node(Node::Kind::kTail, Key{}, T{}, nullptr, nullptr);
    for (int v = 1; v <= kMaxLevel; ++v) {  // head_[0] stays null
      head_[v] = allocate_node(Node::Kind::kHead, Key{}, T{}, head_[v - 1],
                               nullptr);
      head_[v]->succ.store_unsynchronized(View{tail_, false, false});
      tail_->refct.fetch_add(1, std::memory_order_relaxed);  // head link
    }
  }

  // ---- diagnostics (quiescent only) ---------------------------------------

  // fr::SkipCore::validate_towers, plus: each upper node's down link names
  // a node linked one level lower.
  ValidationReport validate() const {
    std::unordered_map<const Node*, int> level_of;  // linked nodes so far
    return this->validate_towers([&](const Node* n, int v) -> const char* {
      level_of[n] = v;
      if (v == 1) return nullptr;
      const auto down = level_of.find(n->down());
      if (down == level_of.end() || down->second != v - 1)
        return "down link not one level lower";
      return nullptr;
    });
  }

 private:
  // The hooks of the skip-list layer (fr_skip_core.h), with the finger's.
  static constexpr std::uint64_t kHeightSalt = 0xa0761d6478bd642fULL;
  Node* head(int v) const { return head_[v]; }
  Node* tail() const { return tail_; }

  std::span<Node* const> level_heads() const {
    return std::span<Node* const>(head_).subspan(1);
  }

  // A node with its immutable below and tower_root links (null root: the
  // node is its own root), each counted at creation, and its height.
  Node* allocate_node(typename Node::Kind kind, Key k, T v, Node* below,
                      Node* root, int height = 0) const {
    Node* n = allocate(kind, std::move(k), std::move(v), [&](Node* fresh) {
      fresh->below = below;
      fresh->tower_root = root == nullptr ? fresh : root;
      fresh->height = height;
    });
    if (below != nullptr) acquire(below);
    if (root != nullptr) acquire(root);
    return n;
  }

  // A root holding its creator reference; counted nodes need no block.
  Node* make_root(typename Node::Kind kind, const Key& k, T value,
                  int height) const {
    return allocate_node(kind, k, std::move(value), nullptr, nullptr, height);
  }
  static int tower_levels(const Node* root) { return root->height; }

  // A root or upper node that was never linked: nobody else holds it.
  void discard_root(Node* root) const { this->abandon(root); }
  void abandon_upper(Node*, Node* node) const { this->abandon(node); }

  // The upper node's counted down link keeps `below` alive, so the
  // builder's creator reference on it goes.
  Node* grow_tower(Node* root, Node* below, const Key& k, int) const {
    Node* upper = allocate_node(Node::Kind::kInterior, k, T{}, below, root);
    release(below);
    return upper;
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

  // The skip-list layer's finger entry for a closed search to level v: a
  // COUNTED (start node, level), or (nullptr, 0) for a head descent. Tries
  // each cached level from v upward through fr::Core::finger_enter, with
  // its bracket way only (a pred left of k's bracket would mean an
  // unbounded rightward walk). Hit/miss accounting covers exactly the
  // finger-eligible searches (v <= kFingerLevels).
  std::pair<Node*, int> finger_start(const Key& k, int v,
                                     stats::StepCounters& c) const {
    if (v > kFingerLevels) return {nullptr, 0};  // never eligible
    auto& cache = FingerCache::of(finger_id_);
    for (int lvl = v; lvl <= kFingerLevels; ++lvl) {
      auto* set = cache.find(finger_id_, lvl - 1);
      if (set == nullptr) break;  // slot holds another instance
      // Equality (pred.key == k) is admitted only when entering at the
      // target level 1: there the cached pred is a tower ROOT, so
      // "unmarked" below directly implies it is not superfluous. At upper
      // levels an equal-key start could sit ON a superfluous node and
      // search_right — which only examines successors — would never
      // physically delete it. A marked pred recovers through backlinks at
      // ANY level: every node is individually counted, so the walk's safe
      // reads need no retired-address argument.
      Node* start =
          this->finger_enter(*set, k, lvl == 1, false,
                             chaos::Site::kSkipFingerValidate,
                             this->finger_proof(), c)
              .first;
      if (start == nullptr) continue;  // try the next level up
      const int head_v = this->descent_top(v);
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
        pred, succ, this->finger_proof().of(pred));
  }

  std::array<Node*, kMaxLevel + 1> head_{};
  Node* tail_;
  const std::uint64_t finger_id_ = sync::next_finger_instance();
};

}  // namespace lf
