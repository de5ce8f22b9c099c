// RWLockSkipList — Pugh's sequential skip list ("Skip Lists: A Probabilistic
// Alternative to Balanced Trees", CACM 1990; the paper's reference [12])
// behind a readers-writer lock.
//
// This models the lock-based concurrent skip lists the paper cites
// ([11], [13]) at the coarsest granularity: searches share the structure,
// updates exclude everyone. It is the lock-based comparison point for
// experiment E4 and doubles as the REFERENCE IMPLEMENTATION for
// differential tests (its sequential core is simple enough to be obviously
// correct).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <utility>

#include "lf/instrument/counters.h"
#include "lf/util/random.h"

namespace lf {

template <typename Key, typename T = Key, typename Compare = std::less<Key>>
class RWLockSkipList {
  static constexpr int kMaxLevel = 24;

 public:
  using key_type = Key;
  using mapped_type = T;
  using key_compare = Compare;

  RWLockSkipList() {
    head_ = new Node(kMaxLevel, Key{}, T{});
    for (int lv = 0; lv < kMaxLevel; ++lv) head_->next[lv] = nullptr;
  }

  ~RWLockSkipList() {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->next[0];
      delete n;
      n = next;
    }
  }

  RWLockSkipList(const RWLockSkipList&) = delete;
  RWLockSkipList& operator=(const RWLockSkipList&) = delete;

  bool insert(const Key& k, T value) {
    std::unique_lock lock(mu_);
    Node* preds[kMaxLevel];
    Node* curr = locate(k, preds);
    bool inserted = false;
    if (curr == nullptr || comp_(k, curr->key)) {
      const int h = thread_ordinal_rng<RWLockSkipList>(0x94d049bb133111ebULL)
                        .tower_height(kMaxLevel);
      Node* node = new Node(h, k, std::move(value));
      for (int lv = 0; lv < h; ++lv) {
        node->next[lv] = next_of(preds[lv], lv);
        set_next(preds[lv], lv, node);
      }
      if (h > level_) level_ = h;
      ++size_;
      inserted = true;
    }
    stats::tls().op_insert.inc();
    return inserted;
  }

  bool erase(const Key& k) {
    std::unique_lock lock(mu_);
    Node* preds[kMaxLevel];
    Node* curr = locate(k, preds);
    bool erased = false;
    if (curr != nullptr && !comp_(k, curr->key)) {
      for (int lv = 0; lv < curr->height; ++lv) {
        if (next_of(preds[lv], lv) == curr)
          set_next(preds[lv], lv, curr->next[lv]);
      }
      delete curr;
      --size_;
      erased = true;
    }
    stats::tls().op_erase.inc();
    return erased;
  }

  std::optional<T> find(const Key& k) const {
    std::shared_lock lock(mu_);
    Node* preds[kMaxLevel];
    Node* curr = locate(k, preds);
    std::optional<T> out;
    if (curr != nullptr && !comp_(k, curr->key)) out.emplace(curr->value);
    stats::tls().op_search.inc();
    return out;
  }

  bool contains(const Key& k) const {
    std::shared_lock lock(mu_);
    Node* preds[kMaxLevel];
    Node* curr = locate(k, preds);
    stats::tls().op_search.inc();
    return curr != nullptr && !comp_(k, curr->key);
  }

  std::size_t size() const {
    std::shared_lock lock(mu_);
    return size_;
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    std::shared_lock lock(mu_);
    for (Node* p = head_->next[0]; p != nullptr; p = p->next[0])
      fn(p->key, p->value);
  }

 private:
  struct Node {
    int height;
    Key key;
    T value;
    Node* next[kMaxLevel];

    Node(int h, Key key_arg, T value_arg)
        : height(h), key(std::move(key_arg)), value(std::move(value_arg)) {}
  };


  Node* next_of(Node* n, int lv) const { return n->next[lv]; }
  void set_next(Node* n, int lv, Node* to) const { n->next[lv] = to; }

  // Standard Pugh search: fills preds[] and returns the first node with
  // key >= k at level 0 (or null).
  Node* locate(const Key& k, Node** preds) const {
    auto& c = stats::tls();
    Node* pred = head_;
    for (int lv = level_ - 1; lv >= 0; --lv) {
      Node* curr = pred->next[lv];
      while (curr != nullptr && comp_(curr->key, k)) {
        pred = curr;
        curr = curr->next[lv];
        c.curr_update.inc();
      }
      preds[lv] = pred;
    }
    for (int lv = level_; lv < kMaxLevel; ++lv) preds[lv] = head_;
    return preds[0]->next[0];
  }

  mutable std::shared_mutex mu_;
  Compare comp_;
  Node* head_;
  int level_ = 1;  // highest level in use
  std::size_t size_ = 0;
};

}  // namespace lf
