// FRList — the lock-free sorted singly-linked list of Fomitchev & Ruppert,
// "Lock-Free Linked Lists and Skip Lists", PODC 2004, Section 3.
//
// The data structure is a sorted singly-linked list between two sentinel
// nodes (head = -inf, tail = +inf). Each node carries
//
//     succ     = (right pointer, mark bit, flag bit) in one CAS-able word
//     backlink = pointer to the node's predecessor, set when it is deleted
//
// Deletion of node B with predecessor A is the paper's three-step protocol
// (Figure 2):
//
//     1. FLAG      C&S A.succ (B,0,0) -> (B,0,1).  A's successor field is
//                  now frozen: it cannot be redirected or marked until the
//                  flag is removed, so B's backlink — about to be set to A —
//                  will never point at a marked node.
//     2. MARK      set B.backlink = A, then C&S B.succ (C,0,0) -> (C,1,0).
//                  B is now logically deleted; a marked successor field
//                  never changes again.
//     3. UNLINK    C&S A.succ (B,0,1) -> (C,0,0): physically deletes B and
//                  removes A's flag in the same step.
//
// An operation that fails a C&S because its target node got marked does NOT
// restart from the head (Harris-style); it walks backlink pointers left
// until it reaches an unmarked node and resumes from there. Because a node
// is only marked while its predecessor is flagged — and a flagged node can
// never be marked — backlink chains only ever grow to the LEFT, which is
// precisely what bounds the recovery cost and yields the paper's amortized
// bound  t̂(S) = O(n(S) + c(S))  (Section 3.4).
//
// Processes help one another (HelpFlagged / HelpMarked) so that a stalled
// deleter can never block anyone: the implementation is lock-free.
//
// The steps of Figures 3-5 (SearchFrom, HelpMarked, HelpFlagged, TryMark,
// TryFlag, the Insert retry loop) live in fr_core.h, shared with the skip
// list and the counted variants, and so does the finger entry; the list
// operations and the finger save live in fr_list_core.h, shared with
// FRListRC. This file keeps the node, the sentinels, the reclaimer's
// disposal hook, the finger's token proof and the adversary hooks.
//
// Linearization points (Section 3.3): successful insert at its successful
// C&S; successful delete when the node becomes marked; searches at the
// moment the SearchFrom postcondition (n1 unmarked and n1.right = n2) holds.
//
// Template parameters:
//   Key, T      key and mapped value. Both must be default-constructible
//               (sentinels value-initialize them) and T must be copyable
//               (find() returns a copy made while the node is guarded).
//   Compare     strict weak order on Key.
//   Reclaimer   memory-reclamation policy (see lf/reclaim/reclaimer.h).
//               Defaults to epoch-based reclamation, which is safe here
//               even though searches may traverse backlinks into
//               physically deleted nodes (argument in lf/reclaim/epoch.h).
//
// Nodes come from the per-thread segment pool (lf/mem/pool.h): 64-byte
// aligned in whole cache lines (no false sharing between neighbours), and a
// freed node is recycled only after the reclaimer's grace period, so reuse
// is ABA-safe.
//
// Instrumentation: every C&S, backlink traversal and search pointer update
// is tallied in lf::stats — the exact step set the paper's amortized
// analysis counts (Section 3.4) — so benchmarks can reproduce the paper's
// cost claims in its own units.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

#include "lf/core/fr_core.h"
#include "lf/core/fr_list_core.h"
#include "lf/instrument/counters.h"
#include "lf/mem/pool.h"
#include "lf/reclaim/epoch.h"
#include "lf/reclaim/leaky.h"
#include "lf/reclaim/reclaimer.h"
#include "lf/sync/backoff.h"
#include "lf/sync/finger.h"
#include "lf/sync/succ_field.h"

namespace lf {

namespace fr {

// FRList's node (FRList::Node). Public so that white-box tests can inspect
// structure; user code should treat nodes as opaque. The per-level steps
// of fr_core.h run on it, as they run on every level of the skip list.
template <typename Key, typename T>
struct alignas(8) ListNode {
  enum class Kind : unsigned char { kHead, kInterior, kTail };

  Kind kind;
  Key key;    // value-initialized for sentinels
  T value;    // value-initialized for sentinels
  sync::SuccField<ListNode> succ;
  std::atomic<ListNode*> backlink{nullptr};

  ListNode(Kind k, Key key_arg, T value_arg)
      : kind(k), key(std::move(key_arg)), value(std::move(value_arg)) {}

  // Route every `new Node` / `delete node` — including the reclaimer's
  // deferred deletes — through the pool. The sized overload is all
  // that's needed; the compiler always knows the node size here.
  static void* operator new(std::size_t bytes) {
    return mem::pool_allocate(bytes);
  }
  static void operator delete(void* p, std::size_t bytes) {
    mem::pool_deallocate(p, bytes);
  }
};

}  // namespace fr

template <typename Key, typename T = Key, typename Compare = std::less<Key>,
          typename Reclaimer = reclaim::EpochReclaimer>
class FRList
    : private fr::ListCore<
          FRList<Key, T, Compare, Reclaimer>,
          fr::Core<FRList<Key, T, Compare, Reclaimer>, fr::ListNode<Key, T>,
                   Key, Compare, fr::kListSites>> {
 public:
  using key_type = Key;
  using mapped_type = T;
  using key_compare = Compare;
  using Node = fr::ListNode<Key, T>;

 private:
  using Core = fr::Core<FRList, Node, Key, Compare, fr::kListSites>;
  using ListCore = fr::ListCore<FRList, Core>;
  using View = typename Core::View;
  using FlagStatus = typename Core::FlagStatus;
  friend Core;
  friend ListCore;

  using Core::comp_;
  using Core::help_flagged;
  using Core::insert_step;
  using Core::try_flag;
  using ListCore::link_node;

 public:
  using typename Core::ValidationReport;
  using typename ListCore::InsertStatus;
  using Core::empty;
  using Core::keys;
  using Core::size;
  using ListCore::contains;
  using ListCore::erase;
  using ListCore::find;
  using ListCore::insert;
  using ListCore::insert_checked;
  using ListCore::validate;

  FRList() : FRList(Compare{}, Reclaimer{}) {}
  explicit FRList(Reclaimer reclaimer) : FRList(Compare{}, std::move(reclaimer)) {}
  FRList(Compare comp, Reclaimer reclaimer)
      : ListCore(std::move(comp)), reclaimer_(std::move(reclaimer)) {
    head_ = new Node(Node::Kind::kHead, Key{}, T{});
    tail_ = new Node(Node::Kind::kTail, Key{}, T{});
    head_->succ.store_unsynchronized(View{tail_, false, false});
    tail_->succ.store_unsynchronized(View{nullptr, false, false});
  }

  // Destruction requires quiescence (no concurrent operations), like every
  // concurrent container's destructor. Frees all nodes still linked;
  // physically deleted nodes were already handed to the reclaimer.
  ~FRList() {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->succ.load().right;
      delete n;
      n = next;
    }
  }

  FRList(const FRList&) = delete;
  FRList& operator=(const FRList&) = delete;

  // Visits (key, value) of every regular node in key order. Weakly
  // consistent under concurrency (like every lock-free iteration).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    for (Node* p = head_->succ.load().right; p->kind != Node::Kind::kTail;
         p = p->succ.load().right) {
      if (!p->succ.load().mark) fn(p->key, p->value);
    }
  }

  // ---- Two-phase insertion hooks (benchmark adversary; Section 3.1) ----
  //
  // The paper's lower-bound execution for Harris's list requires the
  // scheduler to stop inserters between "located the insertion position"
  // and "performed the C&S". These hooks expose exactly that seam so the
  // adversary driver can realize the schedule deterministically. Use with
  // LeakyReclaimer (no guard needs to span the phases) or under external
  // quiescence between phases.
  struct InsertCursor {
    Key key{};
    Node* prev = nullptr;
    Node* next = nullptr;
    Node* node = nullptr;  // allocated, unlinked
  };

  // Phase 1: the initial SearchFrom + duplicate check + node allocation
  // (Insert lines 1-4). Returns false (and allocates nothing) on duplicate.
  bool insert_locate(const Key& k, T value, InsertCursor& cur) {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    auto [prev, next] =
        this->template search_right<true>(k, head_, stats::tls());
    if (node_eq(prev, k, comp_)) return false;
    cur.key = k;
    cur.prev = prev;
    cur.next = next;
    cur.node = make_node(k, std::move(value));
    return true;
  }

  // Phase 2: the Insert retry loop (lines 5-22), including recovery via
  // backlinks when the located predecessor got marked in between.
  bool insert_complete(InsertCursor& cur) {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    auto& c = stats::tls();
    const bool inserted = link_node(cur.node, cur.prev, cur.next, c);
    c.op_insert.inc();
    cur.node = nullptr;
    return inserted;
  }

  // Phase 2 alternative: exactly ONE iteration of the Insert retry loop —
  // one C&S attempt and, on failure, one recovery (help / backlink walk /
  // SearchFrom). The adversary interposes a deletion between iterations,
  // which is precisely the schedule of the paper's Section 3.1 lower bound.
  enum class TryResult { kInserted, kRetry, kDuplicate };

  TryResult insert_try_once(InsertCursor& cur) {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    auto& c = stats::tls();
    sync::Backoff backoff;
    if (insert_step(cur.node, cur.prev, cur.next, backoff, c)) {
      cur.node = nullptr;
      c.op_insert.inc();
      return TryResult::kInserted;
    }
    if (!node_eq(cur.prev, cur.key, comp_)) return TryResult::kRetry;
    discard_node(cur.node);
    cur.node = nullptr;
    c.op_insert.inc();
    return TryResult::kDuplicate;
  }

  // ---- Stalled-deleter hooks (tests; Section 3.3 helping paths) --------
  //
  // A lock-free algorithm must tolerate a deleter that performs the FIRST
  // deletion step (flagging the predecessor) and then stops forever — any
  // other operation that runs into the flag must help the deletion to
  // completion. These hooks create exactly that state so tests can verify
  // each helping path deterministically. erase_begin performs Delete lines
  // 1-4 (search + TryFlag) and returns WITHOUT calling HelpFlagged;
  // erase_finish resumes the stalled operation (idempotent: helpers may
  // have completed it already).
  struct StalledErase {
    Node* prev = nullptr;
    Node* del = nullptr;
    bool flagged = false;  // whether THIS operation placed the flag
  };

  bool erase_begin(const Key& k, StalledErase& out) {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    auto& c = stats::tls();
    auto [prev, del] = this->template search_right<false>(k, head_, c);
    if (!node_eq(del, k, comp_)) return false;
    auto [flag_prev, status, won] = try_flag(prev, del, c);
    const bool in = status == FlagStatus::kIn;
    out.prev = in ? flag_prev : nullptr;
    out.del = del;
    out.flagged = won;
    return in;
  }

  // Completes the stalled deletion; returns whether the stalled operation
  // reports success (it placed the flag, so the deletion is "its").
  bool erase_finish(StalledErase& st) {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    auto& c = stats::tls();
    if (st.prev != nullptr) help_flagged(st.prev, st.del, c);
    c.op_erase.inc();
    return st.flagged;
  }

  // Direct access for white-box tests and the adversary driver.
  Node* head() const noexcept { return head_; }
  Node* tail() const noexcept { return tail_; }
  Reclaimer& reclaimer() noexcept { return reclaimer_; }

 private:
  // ---- the hooks of the list layer (fr_list_core.h) ------------------------

  auto guard() const { return reclaimer_.guard(); }

  Node* make_node(const Key& k, T value) const {
    return new Node(Node::Kind::kInterior, k, std::move(value));
  }
  // Never published: plain delete is safe.
  void discard_node(Node* node) const { delete node; }

  // The finger's validity proof is the reclaimer's token for the current
  // pin (sync::FingerPolicy): everything reachable in this operation stays
  // dereferenceable while that token revalidates, so a save stores it and
  // the probe skips every way saved under another.
  using FingerPol = sync::FingerPolicy<Reclaimer>;
  struct TokenProof {
    std::uint64_t token;
    template <typename Way>
    bool usable(const Way& way) const { return way.proof == token; }
    std::uint64_t of(const Node*) const { return token; }
  };
  TokenProof finger_proof() const { return {FingerPol::token(reclaimer_)}; }

  // The core's disposal hook: the unlinking thread retires del.
  void on_unlinked(Node* del) const { reclaimer_.retire(del); }

  mutable Reclaimer reclaimer_;
  Node* head_;
  Node* tail_;

  static_assert(reclaim::reclaimer_for<Reclaimer, Node>);
};

}  // namespace lf
