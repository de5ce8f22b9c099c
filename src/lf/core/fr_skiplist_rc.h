// FRSkipListRC — the paper's skip list under Valois-style reference
// counting, completing the Section 5 suggestion ("applicable to both our
// linked lists and our skip lists, because there are no cycles among the
// physically deleted nodes").
//
// Same algorithm as FRSkipList (towers, bottom-up insert, root-first
// delete, superfluous-tower cleanup by searches); node lifetime is managed
// by reference counts as in FRListRC. The counted-pointer invariant:
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
// reference-counting toll: two shared RMWs per traversal hop (experiment
// E9 quantifies it on the list; the same profile applies here).
//
// The down-pointer acyclicity (upper -> lower -> ... -> root, root points
// nowhere upward) is what guarantees release cascades terminate, exactly
// the property the paper cites.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "lf/chaos/chaos.h"
#include "lf/instrument/counters.h"
#include "lf/sync/finger.h"
#include "lf/sync/succ_field.h"
#include "lf/util/random.h"

namespace lf {

// `Finger` (sync::FingerOn / sync::FingerOff) statically enables the
// thread-local search-hint layer: the shared way cache of sync/finger.h
// with one 4-way set per level on the lowest kFingerLevels levels, each way
// remembering a recent descent position (pred) and its bracket keys.
// Probing is deref-free over cached bracket keys; only the way that wins a
// level's probe pays the counted re-acquisition (count + reuse stamp, see
// finger_try_hold), whose stamp equality retroactively validates the
// cached keys — so a search pays at most one counted hold per level it
// tries. A marked pred can recover through backlinks at ANY level (every
// node is individually counted, so safe reads need no retired-address
// argument). Erase's tower-cleanup pass keeps its full head descent
// (min_finger_level = MaxLevel), which preserves the superfluous-tower
// sweep above level 1.
template <typename Key, typename T = Key, typename Compare = std::less<Key>,
          int MaxLevel = 24, typename Finger = sync::FingerOn>
class FRSkipListRC {
  static_assert(MaxLevel >= 2, "need at least two levels (erase cleanup)");

 public:
  using key_type = Key;
  using mapped_type = T;
  using key_compare = Compare;

  struct Node;

 private:
  using Succ = sync::SuccField<Node>;
  using View = sync::SuccView<Node>;

  static constexpr std::uint64_t kFreeBit = 1ULL << 63;
  static constexpr std::uint64_t kCountMask = kFreeBit - 1;

 public:
  static constexpr int kMaxTowerHeight = MaxLevel - 1;

  struct alignas(8) Node {
    enum class Kind : unsigned char { kHead, kInterior, kTail };

    Kind kind = Kind::kInterior;
    int level = 1;
    Key key{};
    T value{};
    Succ succ;
    std::atomic<Node*> backlink{nullptr};
    Node* down = nullptr;        // immutable; counted at creation
    Node* tower_root = nullptr;  // immutable; counted at creation
    std::atomic<std::uint64_t> refct{0};
    // Incarnation counter, bumped once per recycle() before the node can
    // be reallocated; (node, stamp) pairs name incarnations for the finger
    // layer (see fr_list_rc.h for the full argument).
    std::atomic<std::uint64_t> stamp{0};
    Node* arena_next = nullptr;
    Node* free_next = nullptr;
  };

  FRSkipListRC() {
    tail_ = allocate(Node::Kind::kTail, 0, Key{}, T{}, nullptr, nullptr);
    Node* below = nullptr;
    for (int v = 1; v <= MaxLevel; ++v) {
      head_[v] = allocate(Node::Kind::kHead, v, Key{}, T{}, below, nullptr);
      head_[v]->succ.store_unsynchronized(View{tail_, false, false});
      tail_->refct.fetch_add(1, std::memory_order_relaxed);  // head link
      below = head_[v];
    }
    top_hint_.store(1, std::memory_order_relaxed);
  }

  ~FRSkipListRC() {
    Node* n = arena_head_;
    while (n != nullptr) {
      Node* next = n->arena_next;
      delete n;
      n = next;
    }
  }

  FRSkipListRC(const FRSkipListRC&) = delete;
  FRSkipListRC& operator=(const FRSkipListRC&) = delete;

  // ---- dictionary operations --------------------------------------------

  bool insert(const Key& k, T value) {
    auto [prev, next] = search_to_level<true>(k, 1);
    if (node_eq(prev, k)) {
      release(prev);
      release(next);
      stats::tls().op_insert.inc();
      return false;
    }
    const int tower_height = tls_rng().tower_height(kMaxTowerHeight);
    Node* root = allocate(Node::Kind::kInterior, 1, k, std::move(value),
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
        if (node != root) delete_node_at(prev, node);
        break;
      }
      raise_top_hint(curr_v);
      if (curr_v == tower_height) break;
      ++curr_v;
      Node* upper =
          allocate(Node::Kind::kInterior, curr_v, k, T{}, node, root);
      release(node);  // lower's creator ref; upper's down-link keeps it
      node = upper;
      release(prev);
      std::tie(prev, next) = search_to_level<true>(k, curr_v);
    }
    release(prev);
    if (next != nullptr) release(next);
    if (node != nullptr) release(node);  // creator ref of the top node
    stats::tls().op_insert.inc();
    return true;
  }

  bool erase(const Key& k) {
    auto [prev, del] = search_to_level<false>(k, 1);
    bool erased = false;
    if (node_eq(del, k)) {
      erased = delete_node_at(prev, del);
      if (erased) {
        // Tower cleanup: full head descent (min_finger_level = MaxLevel),
        // so the superfluous-tower sweep starts above every tower.
        auto [p2, n2] = search_to_level<true>(k, 2, MaxLevel);
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
    if (node_eq(curr, k)) out.emplace(curr->value);
    release(curr);
    release(next);
    stats::tls().op_search.inc();
    return out;
  }

  bool contains(const Key& k) const { return find(k).has_value(); }

  std::size_t size() const {
    std::size_t n = 0;
    Node* curr = acquire(head_[1]);
    Node* next = safe_read_succ(curr);
    while (next->kind != Node::Kind::kTail) {
      if (!next->succ.load().mark) ++n;
      Node* after = safe_read_succ(next);
      release(curr);
      curr = next;
      next = after;
    }
    release(curr);
    release(next);
    return n;
  }

  // ---- diagnostics --------------------------------------------------------

  std::size_t free_count() const {
    std::lock_guard lock(free_mu_);
    return free_count_;
  }
  std::size_t arena_count() const {
    std::lock_guard lock(free_mu_);
    return arena_count_;
  }

  // Quiescent full accounting: allocated == recycled + linked + sentinels.
  bool validate_accounting() const {
    std::size_t linked = 0;
    for (int v = 1; v <= MaxLevel; ++v) {
      for (Node* p = head_[v]->succ.load().right;
           p->kind != Node::Kind::kTail; p = p->succ.load().right) {
        ++linked;
      }
    }
    std::lock_guard lock(free_mu_);
    return arena_count_ == free_count_ + linked +
                               static_cast<std::size_t>(MaxLevel) + 1;
  }

 private:
  enum class InsertResult { kInserted, kDuplicate };

  // ---- counting core (as in FRListRC) -------------------------------------

  Node* acquire(Node* p) const {
    p->refct.fetch_add(1, std::memory_order_acq_rel);
    return p;
  }

  Node* safe_read_succ(Node* source) const {
    for (;;) {
      Node* p = source->succ.load().right;
      p->refct.fetch_add(1, std::memory_order_acq_rel);
      if (source->succ.load().right == p) return p;
      release(p);
    }
  }

  Node* safe_read_backlink(Node* source) const {
    for (;;) {
      Node* p = source->backlink.load(std::memory_order_acquire);
      if (p == nullptr) return nullptr;
      p->refct.fetch_add(1, std::memory_order_acq_rel);
      if (source->backlink.load(std::memory_order_acquire) == p) return p;
      release(p);
    }
  }

  void release(Node* p) const {
    std::vector<Node*> pending{p};
    while (!pending.empty()) {
      Node* n = pending.back();
      pending.pop_back();
      if (n == nullptr) continue;
      // C&S decrement so the interior dying transition (1 -> 0) sets the
      // IN-FREELIST bit atomically; zero-without-the-bit must never be
      // observable or finger_try_hold could validate a dying node (see
      // fr_list_rc.h::release for the ghost-revival interleaving).
      std::uint64_t old = n->refct.load(std::memory_order_acquire);
      bool dying;
      for (;;) {
        assert((old & kCountMask) != 0 && "refcount underflow");
        dying = old == 1 && n->kind == Node::Kind::kInterior;
        const std::uint64_t desired = dying ? kFreeBit : old - 1;
        if (n->refct.compare_exchange_weak(old, desired,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
          break;
        }
      }
      if (!dying) continue;
      pending.push_back(n->succ.load().right);
      pending.push_back(n->backlink.load(std::memory_order_acquire));
      pending.push_back(n->down);
      if (n->tower_root != n) pending.push_back(n->tower_root);
      recycle(n);
    }
  }

  // Drop a never-linked node: its stored succ was never counted.
  void abandon(Node* node) const {
    node->succ.store_unsynchronized(View{nullptr, false, false});
    release(node);
  }

  // ---- arena / free list ----------------------------------------------------

  Node* allocate(typename Node::Kind kind, int level, Key k, T v, Node* down,
                 Node* root) const {
    Node* n = nullptr;
    {
      std::lock_guard lock(free_mu_);
      if (free_head_ != nullptr) {
        n = free_head_;
        free_head_ = n->free_next;
        --free_count_;
      }
    }
    const bool recycled = n != nullptr;
    if (!recycled) {
      n = new Node;
      n->refct.store(1, std::memory_order_relaxed);
      std::lock_guard lock(free_mu_);
      n->arena_next = arena_head_;
      arena_head_ = n;
      ++arena_count_;
    }
    n->kind = kind;
    n->level = level;
    n->key = std::move(k);
    n->value = std::move(v);
    n->down = down;
    n->tower_root = root == nullptr ? n : root;
    if (recycled) {
      n->succ.store_unsynchronized(View{nullptr, false, false});
      n->backlink.store(nullptr, std::memory_order_relaxed);
      n->free_next = nullptr;
      // Clear the free bit only after the fields are written: a stale
      // finger_try_hold whose RMW sees the bit clear synchronizes with the
      // fetch_and below, so release()'s read of `kind` cannot race these
      // writes. While the bit is set nothing reads them.
      n->refct.fetch_add(1, std::memory_order_acq_rel);
      n->refct.fetch_and(~kFreeBit, std::memory_order_acq_rel);
    }
    // Immutable outgoing links are counted at creation and released when
    // the node is freed.
    if (down != nullptr) down->refct.fetch_add(1, std::memory_order_acq_rel);
    if (root != nullptr) root->refct.fetch_add(1, std::memory_order_acq_rel);
    return n;
  }

  void recycle(Node* n) const {
    stats::tls().node_retired.inc();
    stats::tls().node_freed.inc();
    // kFreeBit was set by the dying transition in release(); bump the reuse
    // stamp before the node can be reallocated (see fr_list_rc.h).
    n->stamp.fetch_add(1, std::memory_order_release);
    std::lock_guard lock(free_mu_);
    n->free_next = free_head_;
    free_head_ = n;
    ++free_count_;
  }

  // ---- ordering helpers -------------------------------------------------------

  bool node_lt(const Node* n, const Key& k) const {
    if (n->kind == Node::Kind::kHead) return true;
    if (n->kind == Node::Kind::kTail) return false;
    return comp_(n->key, k);
  }
  bool node_le(const Node* n, const Key& k) const {
    if (n->kind == Node::Kind::kHead) return true;
    if (n->kind == Node::Kind::kTail) return false;
    return !comp_(k, n->key);
  }
  bool node_eq(const Node* n, const Key& k) const {
    return n->kind == Node::Kind::kInterior && !comp_(n->key, k) &&
           !comp_(k, n->key);
  }

  static Xoshiro256& tls_rng() {
    thread_local Xoshiro256 rng(
        0xa0761d6478bd642fULL ^
        std::hash<std::thread::id>{}(std::this_thread::get_id()));
    return rng;
  }

  void raise_top_hint(int level) const noexcept {
    int top = top_hint_.load(std::memory_order_relaxed);
    while (top < level && !top_hint_.compare_exchange_weak(
                              top, level, std::memory_order_relaxed)) {
    }
  }

  // ---- finger (search hint) layer ------------------------------------------

  static constexpr bool kFingerActive = Finger::kEnabled;
  static constexpr int kFingerLevels =
      4 < kMaxTowerHeight ? 4 : kMaxTowerHeight;

  // The shared way cache (sync/finger.h), set lvl - 1 for level lvl. Each
  // way's node is a pred and its proof the pred's reuse stamp; the cached
  // keys are trusted only after finger_try_hold succeeds with an equal
  // stamp (same incarnation => same key).
  using FingerCache = sync::FingerCache<Node, Key,
                                        chaos::Site::kSkipFingerReplace,
                                        kFingerLevels>;

  // Identical protocol to fr_list_rc.h::finger_try_hold; the soundness
  // argument (RMW on the count word sees the dying transition's atomic
  // free-bit, and synchronizes with allocate() so the stamp check sees any
  // recycle) lives there.
  bool finger_try_hold(Node* n, std::uint64_t stamp) const {
    const std::uint64_t old = n->refct.fetch_add(1, std::memory_order_acq_rel);
    if ((old & kFreeBit) != 0 || (old & kCountMask) == 0) {
      release(n);  // freelisted: undo as a failed SafeRead does
      return false;
    }
    if (n->stamp.load(std::memory_order_acquire) != stamp) {
      release(n);  // live node, but a later incarnation
      return false;
    }
    return true;
  }

  // Level the plain head descent would enter at.
  int head_entry_level(int v) const noexcept {
    int curr_v = top_hint_.load(std::memory_order_relaxed) + 1;
    if (curr_v > MaxLevel) curr_v = MaxLevel;
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
  // MaxLevel): the sweep must descend from above the tower it clears, and
  // the RC variant does not track tower tops, so any finger entry could
  // skip superfluous nodes above it.
  template <bool Closed>
  std::pair<Node*, Node*> search_to_level(const Key& k, int v,
                                          int min_finger_level = 0) const {
    Node* curr = nullptr;
    int curr_v = 0;
    if constexpr (kFingerActive)
      std::tie(curr, curr_v) = finger_start<Closed>(k, v, min_finger_level);
    if (curr == nullptr) {
      curr_v = head_entry_level(v);
      curr = acquire(head_[curr_v]);
    }
    while (curr_v > v) {
      auto [c2, n2] = search_right<false>(k, curr);  // consumes curr
      if constexpr (kFingerActive) save_finger(curr_v, c2, n2);
      release(n2);
      // Descend: c2->down is an immutable counted link, so its target is
      // alive while we hold c2; take a reference before letting c2 go.
      Node* below = acquire(c2->down);
      release(c2);
      curr = below;
      --curr_v;
    }
    auto out = search_right<Closed>(k, curr);
    if constexpr (kFingerActive) save_finger(v, out.first, out.second);
    return out;
  }

  // Consumes curr; returns counted (n1, n2).
  template <bool Closed>
  std::pair<Node*, Node*> search_right(const Key& k, Node* curr) const {
    auto& c = stats::tls();
    auto advances = [&](const Node* n) {
      return Closed ? node_le(n, k) : node_lt(n, k);
    };
    Node* next = safe_read_succ(curr);
    for (;;) {
      // Superfluous-tower removal (root marked), trigger key <= k in both
      // modes — see fr_skiplist.h for why.
      while (next->kind == Node::Kind::kInterior && node_le(next, k) &&
             next->tower_root->succ.load().mark) {
        auto [new_curr, status, won] = try_flag_node(curr, next);  // eats curr
        (void)won;
        curr = new_curr;
        if (status == FlagStatus::kIn) help_flagged(curr, next);
        release(next);
        next = safe_read_succ(curr);
        c.next_update.inc();
      }
      if (!advances(next)) break;
      release(curr);
      curr = next;
      c.curr_update.inc();
      next = safe_read_succ(curr);
    }
    return {curr, next};
  }

  // ---- level-local deletion machinery (counted) -----------------------------

  void help_marked(Node* prev, Node* del) const {
    stats::tls().help_marked.inc();
    Node* next = safe_read_succ(del);
    next->refct.fetch_add(1, std::memory_order_acq_rel);  // would-be link
    const View result =
        prev->succ.cas(View{del, false, true}, View{next, false, false});
    if (result == View{del, false, true}) {
      stats::tls().pdelete_cas.inc();
      release(del);  // prev->del link removed
    } else {
      release(next);  // roll back the pre-count
    }
    release(next);
  }

  void help_flagged(Node* prev, Node* del) const {
    stats::tls().help_flagged.inc();
    if (del->backlink.load(std::memory_order_acquire) == nullptr) {
      prev->refct.fetch_add(1, std::memory_order_acq_rel);
      Node* expected = nullptr;
      if (!del->backlink.compare_exchange_strong(
              expected, prev, std::memory_order_acq_rel)) {
        release(prev);
      }
    }
    if (!del->succ.load().mark) try_mark(del);
    help_marked(prev, del);
  }

  void help_flagged_at(Node* prev) const {
    const View v = prev->succ.load();
    if (!v.flag) return;
    Node* del = safe_read_succ(prev);
    if (prev->succ.load() == View{del, false, true}) help_flagged(prev, del);
    release(del);
  }

  void try_mark(Node* del) const {
    do {
      Node* next = safe_read_succ(del);
      const View result =
          del->succ.cas(View{next, false, false}, View{next, true, false});
      if (result == View{next, false, false}) {
        stats::tls().mark_cas.inc();
      } else if (result.flag && !result.mark) {
        help_flagged_at(del);
      }
      release(next);
    } while (!del->succ.load().mark);
  }

  void walk_backlinks(Node*& prev) const {
    auto& c = stats::tls();
    std::uint64_t chain = 0;
    while (prev->succ.load().mark) {
      Node* back = safe_read_backlink(prev);
      if (back == nullptr) break;
      release(prev);
      prev = back;
      c.backlink_traversal.inc();
      ++chain;
    }
    if (chain > 0) stats::chain_hist_tls().record(chain);
  }

  enum class FlagStatus { kIn, kDeleted };

  // Consumes prev; returns (counted prev', status, this-call-won-the-flag).
  std::tuple<Node*, FlagStatus, bool> try_flag_node(Node* prev,
                                                    Node* target) const {
    for (;;) {
      if (prev->succ.load() == View{target, false, true}) {
        return {prev, FlagStatus::kIn, false};
      }
      const View result = prev->succ.cas(View{target, false, false},
                                         View{target, false, true});
      if (result == View{target, false, false}) {
        stats::tls().flag_cas.inc();
        return {prev, FlagStatus::kIn, true};
      }
      if (result == View{target, false, true}) {
        return {prev, FlagStatus::kIn, false};
      }
      walk_backlinks(prev);
      auto [new_prev, del] = search_right<false>(target->key, prev);
      if (del != target) {
        release(del);
        return {new_prev, FlagStatus::kDeleted, false};
      }
      release(del);
      prev = new_prev;
    }
  }

  // Three-step deletion of `del` on its level; both args stay owned by the
  // caller. Returns whether THIS call's flag initiated the deletion.
  bool delete_node_at(Node* prev, Node* del) const {
    Node* p = acquire(prev);
    auto [p2, status, won] = try_flag_node(p, del);
    if (status == FlagStatus::kIn) help_flagged(p2, del);
    release(p2);
    return won;
  }

  // Level-local insert loop; consumes nothing, returns counted prev'.
  std::pair<Node*, InsertResult> insert_node(Node* node, Node* prev_in,
                                             Node* next_in) const {
    auto& c = stats::tls();
    const Key& k = node->key;
    Node* prev = acquire(prev_in);
    Node* next = acquire(next_in);
    if (node_eq(prev, k)) {
      release(next);
      return {prev, InsertResult::kDuplicate};
    }
    for (;;) {
      const View prev_succ = prev->succ.load();
      if (prev_succ.flag) {
        help_flagged_at(prev);
      } else {
        node->succ.store_unsynchronized(View{next, false, false});
        // Pre-count the would-be prev->node link (see fr_list_rc.h::insert).
        node->refct.fetch_add(1, std::memory_order_acq_rel);
        const View result =
            prev->succ.cas(View{next, false, false}, View{node, false, false});
        if (result == View{next, false, false}) {
          c.insert_cas.inc();
          release(next);
          return {prev, InsertResult::kInserted};
        }
        node->refct.fetch_sub(1, std::memory_order_acq_rel);  // roll back
        if (result.flag && !result.mark) help_flagged_at(prev);
        walk_backlinks(prev);
      }
      release(next);
      std::tie(prev, next) = search_right<true>(k, prev);
      if (node_eq(prev, k)) {
        release(next);
        return {prev, InsertResult::kDuplicate};
      }
    }
  }

  Compare comp_;
  std::array<Node*, MaxLevel + 1> head_{};
  Node* tail_;
  mutable std::atomic<int> top_hint_{1};
  const std::uint64_t finger_id_ = sync::next_finger_instance();

  mutable std::mutex free_mu_;
  mutable Node* free_head_ = nullptr;
  mutable Node* arena_head_ = nullptr;
  mutable std::size_t free_count_ = 0;
  mutable std::size_t arena_count_ = 0;
};

}  // namespace lf
