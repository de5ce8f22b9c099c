// LazyList — the lock-based fine-grained list of Heller, Herlihy, Luchangco,
// Moir, Scherer & Shavit ("A Lazy Concurrent List-Based Set Algorithm",
// OPODIS 2005). Included as the strongest LOCK-BASED comparison point: it
// postdates the paper but is the standard lock-based contender in later
// experimental studies of exactly these structures.
//
// Design: per-node mutexes, a `marked` flag for logical deletion, optimistic
// traversal with post-lock validation, and a WAIT-FREE contains() that never
// locks. Because contains() traverses without locks, unlinked nodes must
// outlive concurrent readers: retirement goes through the epoch domain just
// like the lock-free lists.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <utility>

#include "lf/core/key_order.h"
#include "lf/instrument/counters.h"
#include "lf/reclaim/epoch.h"

namespace lf {

template <typename Key, typename T = Key, typename Compare = std::less<Key>>
class LazyList {
 public:
  using key_type = Key;
  using mapped_type = T;
  using key_compare = Compare;

  explicit LazyList(reclaim::EpochDomain& domain =
                        reclaim::EpochDomain::global())
      : domain_(domain) {
    head_ = new Node(Node::Kind::kHead, Key{}, T{});
    tail_ = new Node(Node::Kind::kTail, Key{}, T{});
    head_->next.store(tail_, std::memory_order_relaxed);
  }

  ~LazyList() {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->next.load(std::memory_order_relaxed);
      delete n;
      n = next;
    }
  }

  LazyList(const LazyList&) = delete;
  LazyList& operator=(const LazyList&) = delete;

  bool insert(const Key& k, T value) {
    [[maybe_unused]] auto guard = domain_.guard();
    bool inserted = false;
    for (;;) {
      auto [pred, curr] = locate(k);
      std::scoped_lock lock(pred->mu, curr->mu);
      if (!validate(pred, curr)) {
        stats::tls().restart.inc();
        continue;
      }
      if (node_eq(curr, k, comp_)) break;  // duplicate
      Node* node = new Node(Node::Kind::kInterior, k, std::move(value));
      node->next.store(curr, std::memory_order_relaxed);
      pred->next.store(node, std::memory_order_release);
      inserted = true;
      break;
    }
    stats::tls().op_insert.inc();
    return inserted;
  }

  bool erase(const Key& k) {
    [[maybe_unused]] auto guard = domain_.guard();
    bool erased = false;
    for (;;) {
      auto [pred, curr] = locate(k);
      std::scoped_lock lock(pred->mu, curr->mu);
      if (!validate(pred, curr)) {
        stats::tls().restart.inc();
        continue;
      }
      if (!node_eq(curr, k, comp_)) break;  // absent
      curr->marked.store(true, std::memory_order_release);  // logical
      pred->next.store(curr->next.load(std::memory_order_relaxed),
                       std::memory_order_release);          // physical
      domain_.retire(curr);
      erased = true;
      break;
    }
    stats::tls().op_erase.inc();
    return erased;
  }

  // Wait-free: one pass, no locks, no retries.
  bool contains(const Key& k) const {
    [[maybe_unused]] auto guard = domain_.guard();
    auto& c = stats::tls();
    Node* curr = head_;
    while (node_lt(curr, k, comp_)) {
      curr = curr->next.load(std::memory_order_acquire);
      c.curr_update.inc();
    }
    stats::tls().op_search.inc();
    return node_eq(curr, k, comp_) &&
           !curr->marked.load(std::memory_order_acquire);
  }

  std::optional<T> find(const Key& k) const {
    [[maybe_unused]] auto guard = domain_.guard();
    auto& c = stats::tls();
    Node* curr = head_;
    while (node_lt(curr, k, comp_)) {
      curr = curr->next.load(std::memory_order_acquire);
      c.curr_update.inc();
    }
    stats::tls().op_search.inc();
    std::optional<T> out;
    if (node_eq(curr, k, comp_) &&
        !curr->marked.load(std::memory_order_acquire))
      out.emplace(curr->value);
    return out;
  }

  std::size_t size() const {
    [[maybe_unused]] auto guard = domain_.guard();
    std::size_t n = 0;
    for (Node* p = head_->next.load(std::memory_order_acquire);
         p->kind != Node::Kind::kTail;
         p = p->next.load(std::memory_order_acquire)) {
      if (!p->marked.load(std::memory_order_acquire)) ++n;
    }
    return n;
  }

 private:
  struct Node {
    enum class Kind : unsigned char { kHead, kInterior, kTail };

    Kind kind;
    Key key;
    T value;
    std::atomic<Node*> next{nullptr};
    std::atomic<bool> marked{false};
    std::mutex mu;

    Node(Kind k, Key key_arg, T value_arg)
        : kind(k), key(std::move(key_arg)), value(std::move(value_arg)) {}
  };

  // Unlocked optimistic traversal: pred.key < k <= curr.key.
  std::pair<Node*, Node*> locate(const Key& k) const {
    auto& c = stats::tls();
    Node* pred = head_;
    Node* curr = pred->next.load(std::memory_order_acquire);
    while (node_lt(curr, k, comp_)) {
      pred = curr;
      curr = curr->next.load(std::memory_order_acquire);
      c.curr_update.inc();
    }
    return {pred, curr};
  }

  // Post-lock validation: neither node deleted, still adjacent.
  static bool validate(const Node* pred, const Node* curr) {
    return !pred->marked.load(std::memory_order_acquire) &&
           !curr->marked.load(std::memory_order_acquire) &&
           pred->next.load(std::memory_order_acquire) == curr;
  }

  Compare comp_;
  reclaim::EpochDomain& domain_;
  Node* head_;
  Node* tail_;
};

}  // namespace lf
