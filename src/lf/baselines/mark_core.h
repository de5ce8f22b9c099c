// The core shared by the four mark-only lists: HarrisList, MichaelList,
// MichaelListHP and FRListNoFlag.
//
// Section 3.1 compares list designs on one axis: what an operation does
// after a failed C&S. Harris [3] and Michael [8] restart from the head; the
// FR list walks backlinks; FRListNoFlag walks backlinks without the flag bit
// that keeps them pointing left. Past that recovery step and the search,
// these lists run one algorithm: a successor word whose only tag is the mark
// bit, deletion as a mark C&S followed by an unlink C&S, and an insert that
// retries one C&S until it links its node or finds its key. That shared part
// is written here once, as a CRTP base like fr::Core (core/fr_core.h) and
// rc::Core (core/fr_rc_core.h).
//
// `Derived` provides, reachable from the core (it befriends it):
//
//   Window search(const Key& k) const;
//     a search from the head: adjacent (left, right) with
//     left.key < k <= right.key. It also unlinks the marked nodes it passes
//     (Harris snips whole chains; Michael and FRListNoFlag unlink one node
//     at a time, through try_unlink).
//   Window recover(const Key& k, Node* left) const;
//     a fresh window for k after a C&S at left, or on the node after it,
//     failed: restart from the head (Harris and Michael, through restart),
//     or walk backlinks from left and search on from there (FRListNoFlag).
//   void hint_backlink(Node* del, Node* left) const;   (optional)
//     runs just before del's mark C&S, with left the predecessor del was
//     located behind; FRListNoFlag stores its backlink hint here. The
//     core's default does nothing.
//
// `Reclaimer` provides guard(), the scope of one public operation, and
// retire(node). Every C&S here fires a kBase* chaos site, for all four
// lists alike.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>

#include "lf/chaos/chaos.h"
#include "lf/core/key_order.h"
#include "lf/instrument/counters.h"
#include "lf/sync/succ_field.h"

namespace lf::mark {

// The node of HarrisList, MichaelList and MichaelListHP. FRListNoFlag's
// node adds a backlink (core/fr_list_noflag.h).
template <typename Key, typename T>
struct alignas(8) Node {
  enum class Kind : unsigned char { kHead, kInterior, kTail };

  Kind kind;
  Key key;
  T value;
  sync::SuccField<Node> succ;  // flag bit unused; mark bit only

  Node(Kind k, Key key_arg, T value_arg)
      : kind(k), key(std::move(key_arg)), value(std::move(value_arg)) {}
};

template <typename Derived, typename NodeT, typename Key, typename T,
          typename Compare, typename Reclaimer>
class Core {
 public:
  using key_type = Key;
  using mapped_type = T;
  using key_compare = Compare;
  using Node = NodeT;

  // Two-phase insertion (the Section 3.1 adversary, workload/adversary.h):
  // insert_locate searches and allocates the node, insert_try_once makes
  // one C&S attempt and, when it fails, recovers the list's way, and
  // insert_complete retries until the node is linked or its key is found.
  // The cursor holds node pointers between calls, so drive these under
  // LeakyReclaimer, an outer epoch guard, or quiescence.
  struct InsertCursor {
    Key key{};
    Node* left = nullptr;
    Node* right = nullptr;
    Node* node = nullptr;  // owned until linked; nullptr once done
  };

  enum class TryResult { kInserted, kRetry, kDuplicate };

  Core() : Core(Reclaimer{}) {}
  explicit Core(Reclaimer reclaimer) : reclaimer_(std::move(reclaimer)) {
    head_ = new Node(Node::Kind::kHead, Key{}, T{});
    head_->succ.store_unsynchronized(
        View{new Node(Node::Kind::kTail, Key{}, T{}), false, false});
  }

  ~Core() {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->succ.load().right;
      delete n;
      n = next;
    }
  }

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  bool insert(const Key& k, T value) {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    InsertCursor cur;
    // A duplicate found by the first search costs no allocation.
    const bool inserted = locate(k, std::move(value), cur) && complete(cur);
    stats::tls().op_insert.inc();
    return inserted;
  }

  // Mark, try one unlink, and leave a failed unlink to a search. A failed
  // mark C&S (or a node already marked) is recovered the list's way.
  bool erase(const Key& k) {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    bool erased = false;
    for (Window w = derived().search(k); node_eq(w.right, k, comp_);
         w = derived().recover(k, w.left)) {
      if (Node* next = try_mark(w.left, w.right)) {
        erased = true;
        if (!try_unlink(w.left, w.right, next)) derived().search(k);
        break;
      }
    }
    stats::tls().op_erase.inc();
    return erased;
  }

  std::optional<T> find(const Key& k) const {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    const Node* right = derived().search(k).right;
    std::optional<T> out;
    if (node_eq(right, k, comp_)) out.emplace(right->value);
    stats::tls().op_search.inc();
    return out;
  }

  bool contains(const Key& k) const {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    const bool found = node_eq(derived().search(k).right, k, comp_);
    stats::tls().op_search.inc();
    return found;
  }

  // Unmarked interior nodes; exact only at quiescence.
  std::size_t size() const {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    std::size_t n = 0;
    for (Node* p = head_->succ.load().right; p->kind != Node::Kind::kTail;
         p = p->succ.load().right) {
      if (!p->succ.load().mark) ++n;
    }
    return n;
  }

  Node* head() const noexcept { return head_; }

  bool insert_locate(const Key& k, T value, InsertCursor& cur) {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    return locate(k, std::move(value), cur);
  }

  bool insert_complete(InsertCursor& cur) {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    const bool inserted = complete(cur);
    stats::tls().op_insert.inc();
    return inserted;
  }

  TryResult insert_try_once(InsertCursor& cur) {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    const TryResult result = insert_step(cur);
    if (result != TryResult::kRetry) stats::tls().op_insert.inc();
    return result;
  }

 protected:
  using View = sync::SuccView<Node>;

  // A search result: adjacent nodes with left.key < k <= right.key.
  struct Window {
    Node* left;
    Node* right;
  };

  // Logical deletion: one mark C&S on del, located behind left. Returns the
  // successor the mark froze, or nullptr if del was already marked or the
  // C&S failed.
  Node* try_mark(Node* left, Node* del) const {
    const View succ = del->succ.load();
    if (succ.mark) return nullptr;
    derived().hint_backlink(del, left);
    const View expected{succ.right, false, false};
    if (chaos::cas(chaos::Site::kBaseMarkCas, del->succ, expected,
                   View{succ.right, true, false}) != expected) {
      return nullptr;
    }
    stats::tls().mark_cas.inc();
    return succ.right;
  }

  // Physical deletion: one C&S swinging left past the marked del to next.
  // The thread whose C&S succeeds retires del.
  bool try_unlink(Node* left, Node* del, Node* next) const {
    const View expected{del, false, false};
    if (chaos::cas(chaos::Site::kBaseUnlinkCas, left->succ, expected,
                   View{next, false, false}) != expected) {
      return false;
    }
    stats::tls().pdelete_cas.inc();
    reclaimer_.retire(del);
    return true;
  }

  // Harris's and Michael's recovery: search again from the head.
  Window restart(const Key& k) const {
    stats::tls().restart.inc();
    return derived().search(k);
  }

  void hint_backlink(Node* /*del*/, Node* /*left*/) const {}

  Compare comp_;
  mutable Reclaimer reclaimer_;
  Node* head_;

 private:
  const Derived& derived() const { return static_cast<const Derived&>(*this); }

  bool locate(const Key& k, T value, InsertCursor& cur) const {
    const auto [left, right] = derived().search(k);
    if (node_eq(right, k, comp_)) return false;
    cur = {k, left, right,
           new Node(Node::Kind::kInterior, k, std::move(value))};
    return true;
  }

  bool complete(InsertCursor& cur) const {
    TryResult result;
    do {
      result = insert_step(cur);
    } while (result == TryResult::kRetry);
    return result == TryResult::kInserted;
  }

  // One pass of the insert retry loop: the insertion C&S of cur.node
  // between cur.left and cur.right; on failure the list's recovery finds a
  // new window, or the key, in which case the unpublished node is freed.
  TryResult insert_step(InsertCursor& cur) const {
    cur.node->succ.store_unsynchronized(View{cur.right, false, false});
    const View expected{cur.right, false, false};
    if (chaos::cas(chaos::Site::kBaseInsertCas, cur.left->succ, expected,
                   View{cur.node, false, false}) == expected) {
      stats::tls().insert_cas.inc();
      cur.node = nullptr;
      return TryResult::kInserted;
    }
    const auto [left, right] = derived().recover(cur.key, cur.left);
    if (node_eq(right, cur.key, comp_)) {
      delete cur.node;
      cur.node = nullptr;
      return TryResult::kDuplicate;
    }
    cur.left = left;
    cur.right = right;
    return TryResult::kRetry;
  }
};

}  // namespace lf::mark
