// Hazard pointers — Michael's Safe Memory Reclamation (the paper's
// reference [9]).
//
// A thread protects a node by publishing its address in one of its hazard
// slots and re-validating that the node is still reachable from where the
// pointer was loaded; retired nodes are only freed when no published hazard
// slot holds them.
//
// Its user is MichaelListHP (baselines/michael_list.h), with the
// per-traversal protect/validate discipline the scheme was designed around
// (slots [0, kMichaelListSlots)). The fence discipline lives in
// ThreadSlots::protect(), the single audited publish-then-revalidate helper
// (see the memory-ordering audit below). The FR structures do not use this
// domain: their backlink walks defeat per-pointer validation (DESIGN.md
// §10), so they reclaim with epochs or leak. A thread's slots and retire
// list come from the registry in registry.h, shared with EpochDomain.
//
// ---- Memory-ordering audit: set()/clear()/protect() vs scan() -----------
//
// The protect idiom is   set(i, p)  — seq_cst store of the slot —
// followed by             reload    — seq_cst load of the source field
// (every SuccField load/C&S is seq_cst; see sync/succ_field.h). A reclaimer
// unlinks the node with a seq_cst C&S and scan() snapshots every slot with
// a seq_cst load. All four operations are therefore in the single total
// order S of seq_cst operations, and the store-buffering shape cannot
// deadlock the proof:
//
//     protector:  W_slot(p)        ; R_src
//     reclaimer:  W_src(unlink p)  ; R_slot
//
//   * If R_slot observes W_slot, the scanner sees p and spares it: the
//     protector's dereferences are safe.
//   * Otherwise R_slot precedes W_slot in S, so
//     W_src <_S R_slot <_S W_slot <_S R_src, and a seq_cst R_src must
//     observe W_src (or newer): the reload sees the unlink, validation
//     fails, and the protector discards p without dereferencing it.
//
// Weakening either the slot store or the source reload below seq_cst
// breaks the second branch (both sides could read the pre-race values —
// the classic store-buffering outcome) and the scanner could free a node
// the protector goes on to dereference. That is why set() must remain
// seq_cst and why protect() owns the pairing.
//
// clear(i) is only a RELEASE store: clearing merely widens the set of
// freeable nodes, so a scanner reading the stale non-null value is
// conservative (it spares a node longer than necessary — never the reverse).
// The release ordering is still required: when a scanner's seq_cst snapshot
// DOES observe the null, the release/seq_cst pairing makes every earlier
// dereference by the owner happen-before the observation, hence before the
// free. A relaxed clear would let the free race the owner's last reads.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#include "lf/reclaim/registry.h"
#include "lf/util/align.h"

namespace lf::reclaim {

class HazardDomain {
 public:
  // Michael's find() keeps at most three node references live at a time
  // (prev, curr, next — SPAA 2002, Section 3); MichaelListHP publishes two
  // of them and the third is protected transitively, but the budget follows
  // the paper's bound. MichaelListHP static_asserts its indices against
  // kMichaelListSlots.
  static constexpr int kMichaelListSlots = 3;
  static constexpr int kSlotsPerThread = kMichaelListSlots;

  HazardDomain() = default;
  HazardDomain(const HazardDomain&) = delete;
  HazardDomain& operator=(const HazardDomain&) = delete;

  static HazardDomain& global();

  // The calling thread's hazard slots in this domain (acquired on first
  // use, released at thread exit).
  class ThreadSlots {
   public:
    void set(int i, const void* p) noexcept {
      hp_[i].value.store(const_cast<void*>(p), std::memory_order_seq_cst);
    }
    void clear(int i) noexcept {
      hp_[i].value.store(nullptr, std::memory_order_release);
    }
    void clear_all() noexcept {
      for (auto& slot : hp_) slot.value.store(nullptr,
                                              std::memory_order_release);
    }

    // The audited publish-then-revalidate step (see the memory-ordering
    // audit at the top of this file): publish p into slot i, then confirm
    // via `reload` — which must re-read p's SOURCE and return the pointer
    // it would yield now, or nullptr if the source no longer yields p
    // (unlinked, marked, redirected...) — that p was still reachable AFTER
    // the publication became visible. On true, p is safe to dereference
    // until the slot is cleared or overwritten; on false the caller must
    // discard p and take its retry path.
    template <typename T, typename Reload>
    [[nodiscard]] bool protect(int i, T* p, Reload&& reload) noexcept {
      set(i, p);
      return reload() == p;
    }

   private:
    friend class HazardDomain;
    CacheAligned<std::atomic<void*>> hp_[kSlotsPerThread];
    detail::RetiredList retired_;
  };

  ThreadSlots& slots();

  // Retire an unlinked node; freed by a later scan() once unprotected.
  template <typename Node>
  void retire(Node* node) {
    retire_erased(node, [](void* p) { delete static_cast<Node*>(p); });
  }

  // Force a scan on the calling thread's retire list plus adopted orphans.
  // Frees every retired node not currently protected by any hazard slot.
  void scan();

  std::uint64_t retired_count() const noexcept {
    return retired_live_->load(std::memory_order_relaxed);
  }

  // Stalled-thread adoption (DESIGN.md §11): scavenge the record of a
  // thread the CALLER VOUCHES cannot run concurrently with this call
  // (parked with a happens-before edge, or verifiably dead). Its retired
  // list moves to the orphans for the next scan. Its slots are deliberately
  // NOT cleared: a victim parked mid-protect-walk may dereference them on
  // resume, so a dead thread retains at most kSlotsPerThread nodes (a
  // bounded, not growing, cost). Returns true if the thread owned a record
  // here.
  bool adopt_stalled(std::thread::id tid);

 private:
  friend class detail::RecordRegistry<HazardDomain, ThreadSlots>;

  void retire_erased(void* object, void (*deleter)(void*));
  // Registry hooks (registry.h), registry lock held.
  ThreadSlots* new_record() { return new ThreadSlots; }
  void on_thread_exit(ThreadSlots& rec);
  void scan_record(ThreadSlots& rec);

  CacheAligned<std::atomic<std::uint64_t>> retired_live_;

  detail::RetiredList orphans_;  // retire lists of exited threads
  // Every thread's slots; its mutex also guards orphans_. Declared last, so
  // destroyed first: it leaves the live-domain map before anything a thread
  // exit touches is gone. Destruction requires that no thread still uses
  // the domain, so nothing is protected and every retire list is freed.
  detail::RecordRegistry<HazardDomain, ThreadSlots> records_{*this};
};

}  // namespace lf::reclaim
