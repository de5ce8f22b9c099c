// The list layer of FRList and FRListRC, written once: Insert, Delete and
// Search (Figures 3-5) entered through the per-thread finger cache. As
// Section 5 notes, Valois's counting applies to the linked list unchanged,
// so ListCore<Derived, Base> runs over Base = fr::Core (FRList) or rc::Core
// (FRListRC) and reaches the reference points through derived(): under
// counting every node it holds is a counted reference; without,
// acquire/release inline away (the counterpart of fr::SkipCore).
//
// Derived befriends this class and supplies head(); guard(), the
// operation's reclamation guard (rc::Core's is empty); make_node(k,
// value), a never-published node held by the caller (may throw
// std::bad_alloc); discard_node(node), freeing one; and finger_proof(),
// whose usable(way) filters the probe and of(node) is the proof a save
// stores (FRList's epoch or leaky token; rc::Core's reuse stamp).
#pragma once

#include <cstdint>
#include <new>
#include <optional>
#include <tuple>
#include <utility>

#include "lf/chaos/chaos.h"
#include "lf/core/key_order.h"
#include "lf/instrument/counters.h"
#include "lf/sync/finger.h"

namespace lf::fr {

template <typename Derived, typename Base>
class ListCore : public Base {
 public:
  using Node = typename Base::node_type;
  using Key = decltype(Node::key);
  using T = decltype(Node::value);

  using Base::Base;

  // ---- Dictionary operations (paper Figures 3-5) ----------------------

  // insert_checked distinguishes "key already present" from "allocation
  // failed": a node allocation (or key copy) that throws std::bad_alloc is
  // absorbed before anything is linked, so the structure is untouched and
  // every reference the search took is dropped.
  enum class InsertStatus { kInserted, kDuplicate, kNoMemory };

  // INSERT(k, e): true on success, false if the key is already present.
  bool insert(const Key& k, T value) {
    return insert_checked(k, std::move(value)) == InsertStatus::kInserted;
  }

  InsertStatus insert_checked(const Key& k, T value) {
    [[maybe_unused]] auto guard = derived().guard();
    auto& c = stats::tls();
    auto [prev, next] = search_entry<true>(k, c);
    InsertStatus status = InsertStatus::kDuplicate;  // DUPLICATE_KEY
    if (!node_eq(prev, k, comp_)) {
      Node* node = nullptr;
      try {
        node = derived().make_node(k, std::move(value));
      } catch (const std::bad_alloc&) {
        status = InsertStatus::kNoMemory;  // nothing linked, nothing leaked
      }
      if (node != nullptr && link_node(node, prev, next, c))
        status = InsertStatus::kInserted;
    }
    derived().release(prev);
    derived().release(next);
    c.op_insert.inc();
    return status;
  }

  // DELETE(k): true if this operation deleted the key, false otherwise
  // (absent, or a concurrent deletion of the same node wins).
  bool erase(const Key& k) {
    [[maybe_unused]] auto guard = derived().guard();
    auto& c = stats::tls();
    // SearchFrom(k - eps): prev.key < k <= del.key, per Delete line 1.
    auto [prev, del] = search_entry<false>(k, c);
    const bool erased =
        node_eq(del, k, comp_) && this->delete_node(prev, del, c);
    derived().release(prev);
    derived().release(del);
    c.op_erase.inc();
    return erased;
  }

  // SEARCH(k): copy of the mapped value, or nullopt.
  std::optional<T> find(const Key& k) const {
    [[maybe_unused]] auto guard = derived().guard();
    auto& c = stats::tls();
    auto [curr, next] = search_entry<true>(k, c);
    std::optional<T> out;
    if (node_eq(curr, k, comp_)) out.emplace(curr->value);
    derived().release(curr);
    derived().release(next);
    c.op_search.inc();
    return out;
  }

  bool contains(const Key& k) const {
    [[maybe_unused]] auto guard = derived().guard();
    auto& c = stats::tls();
    auto [curr, next] = search_entry<true>(k, c);
    const bool found = node_eq(curr, k, comp_);
    derived().release(curr);
    derived().release(next);
    c.op_search.inc();
    return found;
  }

  // The paper's INV 1-5 at a quiescent point (fr::Core::validate_level).
  typename Base::ValidationReport validate() const {
    typename Base::ValidationReport rep;
    this->validate_level(derived().head(), rep,
                         [](const Node*) -> const char* { return nullptr; });
    return rep;
  }

 protected:
  using Base::comp_;
  using Base::derived;

  // The Insert retry loop for node, a new node held by its creator,
  // between (prev, next), a search result for its key that the caller
  // holds. A duplicate discards node (never published); a linked node
  // loses its creator reference.
  bool link_node(Node* node, Node* prev, Node* next,
                 stats::StepCounters& c) const {
    auto [last_prev, result] = this->insert_node(node, prev, next, c);
    derived().release(last_prev);
    if (result == Base::InsertResult::kInserted) {
      derived().release(node);
      return true;
    }
    derived().discard_node(node);
    return false;
  }

 private:
  // ---- Finger (search hint) layer — see sync/finger.h and DESIGN.md §10 --
  //
  // One way set per (thread, list instance). Only the public operations
  // use it; FRList's adversary and stalled-erase hooks start at the head,
  // so the paper's lower-bound schedules stay reproducible.
  using FingerCache =
      sync::FingerCache<Node, Key, chaos::Site::kListFingerReplace>;

  // The head-or-finger search every public operation starts with; returns
  // the held pair, saved under this operation's proof. The bracket way that
  // served it is refreshed in place (its new bracket is a subrange of the
  // old one; FingerCache::Set::save). Counts one finger hit or miss.
  template <bool Closed>
  std::pair<Node*, Node*> search_entry(const Key& k,
                                       stats::StepCounters& c) const {
    auto& cache = FingerCache::of(finger_id_);
    const auto proof = derived().finger_proof();
    Node* start = nullptr;
    int bracket = -1;
    if (auto* set = cache.find(finger_id_)) {
      std::tie(start, bracket) =
          this->finger_enter(*set, k, Closed, true,
                             chaos::Site::kListFingerValidate, proof, c);
    }
    if (start == nullptr) {
      LF_CHAOS_POINT(kListFingerFallback);
      c.finger_miss.inc();
      start = derived().acquire(derived().head());
    }
    auto out = this->template search_right<Closed>(k, start, c);
    cache.claim(finger_id_).save(out.first, out.second, proof.of(out.first),
                                 bracket);
    return out;
  }

  // Never-reused id keying this instance's thread-local finger slots.
  const std::uint64_t finger_id_ = sync::next_finger_instance();
};

}  // namespace lf::fr
