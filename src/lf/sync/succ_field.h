// The successor field: (right pointer, mark bit, flag bit) in one CAS-able
// word.
//
// Section 3.2: "The successor field ... is composed of three parts: a right
// pointer, a mark bit, and a flag bit. So, for each node n,
// n.succ = (n.right, n.mark, n.flag)."  The paper's footnote observes that a
// word that stores a pointer has unused low bits; nodes are allocated with
// alignment >= 4 so bits 0 (mark) and 1 (flag) are free.
//
//   mark = 1  -> the node is logically deleted; its successor field is
//                frozen forever (no C&S modifies a marked field).
//   flag = 1  -> deletion of the *next* node is underway; the field is
//                frozen until the flag is removed.
//
// INV 5 ("no node can be both marked and flagged at the same time") is
// enforced structurally: pack() rejects mark && flag.
//
// Every C&S performed through this codec is tallied in the step counters,
// which is what lets the benchmarks report costs in the paper's model.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>

#include "lf/instrument/counters.h"

namespace lf::sync {

// A decoded successor value. Node is the list's node type; the codec is
// templated so each data structure gets type-safe views.
template <typename Node>
struct SuccView {
  Node* right = nullptr;
  bool mark = false;
  bool flag = false;

  friend bool operator==(const SuccView&, const SuccView&) = default;
};

template <typename Node>
class SuccField {
 public:
  using View = SuccView<Node>;

  static constexpr std::uintptr_t kMarkBit = 1;
  static constexpr std::uintptr_t kFlagBit = 2;
  static constexpr std::uintptr_t kPtrMask = ~(kMarkBit | kFlagBit);

  SuccField() noexcept : word_(0) {}
  explicit SuccField(View v) noexcept : word_(pack(v)) {}

  // Plain store: only valid before the node is published (e.g. newNode.succ
  // in Insert line 10) or single-threaded teardown.
  void store_unsynchronized(View v) noexcept {
    word_.store(pack(v), std::memory_order_relaxed);
  }

  // Loads are seq_cst, not acquire: the paper's proofs assume a
  // sequentially consistent memory, and the epoch-reclamation grace
  // argument leans on it — a formally-stale acquire load could hand a
  // traversal a pointer whose target was retired before the reader ever
  // pinned. On x86 a seq_cst load is an ordinary MOV, so this costs
  // nothing where it matters.
  View load() const noexcept {
    return unpack(word_.load(std::memory_order_seq_cst));
  }

  Node* right() const noexcept { return load().right; }
  bool marked() const noexcept {
    return (word_.load(std::memory_order_seq_cst) & kMarkBit) != 0;
  }
  bool flagged() const noexcept {
    return (word_.load(std::memory_order_seq_cst) & kFlagBit) != 0;
  }

  // The paper's C&S(address, old, new): one attempt, returning the value the
  // field held at the linearization point of the primitive (so callers can
  // branch on the failure reason exactly like the pseudocode does).
  // Counts one cas_attempt and, when it succeeds, one cas_success, in the
  // calling thread's counter block c.
  View cas(View expected, View desired,
           stats::StepCounters& c = stats::tls()) noexcept {
    c.cas_attempt.inc();
    std::uintptr_t exp = pack(expected);
    const std::uintptr_t des = pack(desired);
    if (word_.compare_exchange_strong(exp, des, std::memory_order_seq_cst,
                                      std::memory_order_seq_cst)) {
      c.cas_success.inc();
      return expected;
    }
    return unpack(exp);
  }

  static std::uintptr_t pack(View v) noexcept {
    const auto bits = reinterpret_cast<std::uintptr_t>(v.right);
    assert((bits & ~kPtrMask) == 0 && "node under-aligned for tag bits");
    assert(!(v.mark && v.flag) && "INV5: marked and flagged simultaneously");
    return bits | (v.mark ? kMarkBit : 0) | (v.flag ? kFlagBit : 0);
  }

  static View unpack(std::uintptr_t w) noexcept {
    return View{reinterpret_cast<Node*>(w & kPtrMask), (w & kMarkBit) != 0,
                (w & kFlagBit) != 0};
  }

 private:
  std::atomic<std::uintptr_t> word_;
  static_assert(std::atomic<std::uintptr_t>::is_always_lock_free,
                "single-word C&S must be a hardware primitive");
};

}  // namespace lf::sync
