// Hazard pointers — Michael's Safe Memory Reclamation (the paper's
// reference [9]).
//
// A thread protects a node by publishing its address in one of its hazard
// slots and re-validating that the node is still reachable from where the
// pointer was loaded; retired nodes are only freed when no published hazard
// slot holds them.
//
// Two users share this domain:
//
//   * MichaelListHP — the per-traversal protect/validate discipline the
//     scheme was designed around (slots [0, kMichaelListSlots)). The fence
//     discipline lives in ThreadSlots::protect(), the single audited
//     publish-then-revalidate helper (see the memory-ordering audit below).
//
//   * The FR finger layer — via reclaim::HazardReclaimer (bottom of this
//     file), which pairs an epoch-pinned traversal with two RETAINED hazard
//     slots (kFingerSlot, kFingerHopSlot) that keep a thread's cached search
//     finger dereferenceable BETWEEN operations, across epoch advances. The
//     soundness argument is in DESIGN.md §10; the scan-side half of it (the
//     chain-protecting walk) is implemented in scan_record().
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
#include <mutex>
#include <thread>
#include <vector>

#include "lf/instrument/counters.h"
#include "lf/reclaim/epoch.h"
#include "lf/util/align.h"

namespace lf::reclaim {

class HazardDomain {
  struct RetiredNode;  // type-erased retired-node record; defined below

 public:
  // Per-user slot requirements, by name. The total is their sum, and each
  // user static_asserts its own indices against its named constant, so a
  // new slot consumer extends the budget here instead of silently reusing
  // a "spare".
  //
  // Michael's find() keeps at most three node references live at a time
  // (prev, curr, next — SPAA 2002, Section 3); MichaelListHP publishes two
  // of them and the third is protected transitively, but the budget follows
  // the paper's bound.
  static constexpr int kMichaelListSlots = 3;
  // The FR list's finger path (core/fr_list.h) retains up to
  // kFingerEntries cached finger pointers between operations, one per
  // set-associative cache way, plus one transient hop slot that a
  // backlink-recovery walk republishes per hop.
  static constexpr int kFingerEntries = 4;
  static constexpr int kFingerSlots = kFingerEntries + 1;  // + hop slot
  static constexpr int kSlotsPerThread = kMichaelListSlots + kFingerSlots;

  // Fixed indices of the finger slots (the Michael-list slots are
  // [0, kMichaelListSlots)). Entry i lives at kFingerSlot + i, and every
  // entry is paired with the chain walker (see scan_record).
  static constexpr int kFingerSlot = kMichaelListSlots;
  static constexpr int kFingerHopSlot = kMichaelListSlots + kFingerEntries;
  static_assert(kFingerHopSlot < kSlotsPerThread,
                "finger slots must fit the per-thread slot budget");

  // Type-erased backlink-chain walker a structure registers alongside its
  // published finger: given a node, return the next node of its backlink
  // chain (nullptr when the node is unmarked, i.e. the chain ends). scan()
  // uses it to protect the WHOLE chain a retained finger can recover
  // through, not just the finger itself.
  using ChainWalker = void* (*)(void*);

  HazardDomain();
  ~HazardDomain();
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

    // Retained-finger metadata, owner-written (publish_finger), scanner-read
    // under a seqlock: finger_seq_ is bumped to odd before and even after a
    // publish rewrites (slot, walker, tag) together, so a scanner never
    // pairs a pointer from one publish with the walker of another. A
    // scanner that observes a torn publish skips the chain walk for this
    // record — sound, because a republished slot's OLD chain is abandoned
    // (the owner only ever walks from its current finger) and the NEW
    // finger's chain cannot contain anything freeable yet (DESIGN.md §10).
    std::atomic<std::uint64_t> finger_seq_{0};
    std::atomic<ChainWalker> finger_walker_{nullptr};
    std::atomic<std::uint64_t> finger_tag_{0};

    RetiredNode* retired_ = nullptr;
    std::uint64_t retired_count_ = 0;
    std::thread::id owner_id_{};  // registry-lock-protected; for adoption
    bool in_use_ = false;
  };

  ThreadSlots& slots();

  // Retire an unlinked node; freed by a later scan() once unprotected.
  template <typename Node>
  void retire(Node* node) {
    retire_erased(node, [](void* p) { delete static_cast<Node*>(p); });
  }

  // Deleter-based retirement (same contract as EpochDomain::retire_with):
  // `deleter(object)` runs once no hazard slot protects `object`. This is
  // the entry point HazardReclaimer's epoch→hazard handoff uses.
  void retire_with(void* object, void (*deleter)(void*)) {
    retire_erased(object, deleter);
  }

  // ---- Retained-finger slot protocol (HazardReclaimer / finger layer) ----

  // Publish `nodes[0..n)` as the calling thread's retained fingers: store
  // nodes[i] in slot kFingerSlot + i (entries beyond n are nulled) together
  // with the structure's chain walker — the owner may recover through the
  // backlink chain of any entry — and its never-reused instance tag, and
  // clear any leftover hop publication. Every non-null nodes[i] must be
  // provably alive at the call (found unreclaimed under a still-held epoch
  // pin, or continuously protected by the very slot it republishes into) —
  // the publish-while-alive invariant every scan-side argument rests on.
  void publish_finger(void* const* nodes, int n, ChainWalker walker,
                      std::uint64_t tag);

  // Re-acquire a finger cached by an earlier operation: true iff the
  // calling thread's slot kFingerSlot + idx still holds exactly `node`
  // under `tag`, i.e. the publication was never evicted — continuous
  // protection — so the node is still dereferenceable. Never dereferences
  // `node`.
  bool reacquire_finger(const void* node, std::uint64_t tag, int idx = 0);

  // Null every record's retained-finger entries whose tag matches (a
  // structure being destroyed calls this BEFORE freeing its nodes). Runs
  // under the registry lock, mutually exclusive with scan()'s chain walks,
  // so after it returns no scanner can dereference the dying structure's
  // nodes.
  void invalidate_fingers(std::uint64_t tag);

  // Force a scan on the calling thread's retire list plus adopted orphans.
  // Frees every retired node not currently protected by any hazard slot or
  // reachable along a published finger's backlink chain.
  void scan();

  std::uint64_t retired_count() const noexcept {
    return retired_live_->load(std::memory_order_relaxed);
  }

  // Stalled-thread adoption (DESIGN.md §11): scavenge the record of a
  // thread the CALLER VOUCHES cannot run concurrently with this call
  // (parked with a happens-before edge, or verifiably dead). Its retained
  // finger entries, hop slot and finger metadata are cleared — if the
  // thread resumes, reacquire_finger fails closed without dereferencing —
  // and its retired list moves to the orphans for the next scan. The
  // Michael-list slots [0, kMichaelListSlots) are deliberately NOT cleared:
  // a victim parked mid-protect-walk may dereference them on resume, so a
  // dead thread retains at most kMichaelListSlots nodes (a bounded, not
  // growing, cost). Contract: a resumable victim must not be past a
  // successful reacquire_finger (it would dereference the de-protected
  // finger). Returns true if the thread owned a record here.
  bool adopt_stalled(std::thread::id tid);

 private:
  struct RetiredNode {
    void* object;
    void (*deleter)(void*);
    RetiredNode* next;
  };

  void retire_erased(void* object, void (*deleter)(void*));
  ThreadSlots* acquire_record();
  void release_record(ThreadSlots* rec);  // thread exit
  void scan_record(ThreadSlots& rec);
  std::uint64_t scan_threshold() const noexcept;

  CacheAligned<std::atomic<std::uint64_t>> retired_live_;

  std::mutex registry_mu_;
  std::vector<ThreadSlots*> records_;  // owned; includes released records
  RetiredNode* orphans_ = nullptr;
  std::uint64_t orphan_count_ = 0;

  const std::uint64_t domain_id_;
};

// ---------------------------------------------------------------------------
// HazardReclaimer — the reclamation policy that makes the finger layer total
// over hazard pointers (sync/finger.h gives it a publishing FingerPolicy).
//
// Pure per-pointer hazard protection cannot validate an FR traversal: the
// structures follow write-once backlinks and frozen (marked) successor
// fields, so the publish-then-reload-compare step proves nothing — the
// source re-reads the same value whether or not the target was freed. The
// Michael list restarts on every interference precisely to avoid this; the
// FR structures exist to never restart. So this policy is a LAYERED scheme:
//
//   * guard() is an epoch pin (EpochDomain): in-operation traversal safety
//     comes from the grace-period argument in reclaim/epoch.h, unchanged.
//   * The hazard slots add the one thing epochs cannot: CROSS-OPERATION
//     protection for the retained search finger, which survives arbitrary
//     epoch advances between operations (the strict-token epoch finger
//     policy goes stale as soon as the epoch moves).
//
// Retirement is two-stage: retire_with() parks the object in the epoch
// domain; after the grace period the deleter hands it to the hazard
// domain's retired list, where scan() frees it only once no slot (and no
// published finger chain) protects it. The epoch stage bridges publication
// and protection: anything a thread could have published as a finger while
// pinned only reaches the hazard stage after that pin ends, so every scan
// that could free it already sees the publication (proof: DESIGN.md §10).
//
// Note the two-stage path counts node_retired/node_freed once per stage in
// lf::stats (diagnostic counters; tests account for the doubling), and each
// retirement allocates one small heap Handoff record.
// ---------------------------------------------------------------------------
class HazardReclaimer {
 public:
  HazardReclaimer()
      : epoch_(&EpochDomain::global()), hazard_(&HazardDomain::global()) {}
  HazardReclaimer(EpochDomain& epoch, HazardDomain& hazard)
      : epoch_(&epoch), hazard_(&hazard) {}

  EpochDomain::Guard guard() { return epoch_->guard(); }

  template <typename Node>
  void retire(Node* node) {
    retire_with(node, [](void* p) { delete static_cast<Node*>(p); });
  }

  void retire_with(void* object, void (*deleter)(void*)) {
    epoch_->retire_with(new Handoff{hazard_, object, deleter},
                        &Handoff::pass);
  }

  // ---- Finger-layer hooks (called by the structures under
  // `if constexpr (FingerPolicy::kPublishes)`; see sync/finger.h) ----------

  // How many finger entries (cache ways) a structure may retain per thread.
  static constexpr int kFingerEntries = HazardDomain::kFingerEntries;

  void finger_publish(void* const* nodes, int n,
                      HazardDomain::ChainWalker walker, std::uint64_t tag) {
    hazard_->publish_finger(nodes, n, walker, tag);
  }
  bool finger_reacquire(const void* node, std::uint64_t tag, int idx = 0) {
    return hazard_->reacquire_finger(node, tag, idx);
  }
  // Publish one backlink hop of a recovery walk before dereferencing it.
  // No reload step: the hop target's liveness is guaranteed by the
  // chain-protecting scan as long as the finger slot is held (DESIGN.md
  // §10); the publication keeps the CURRENT walk position protected in its
  // own right as the walk moves past the finger.
  void finger_protect_hop(void* node) {
    hazard_->slots().set(HazardDomain::kFingerHopSlot, node);
  }
  void finger_invalidate(std::uint64_t tag) {
    hazard_->invalidate_fingers(tag);
  }

  EpochDomain& epoch_domain() noexcept { return *epoch_; }
  HazardDomain& hazard_domain() noexcept { return *hazard_; }

 private:
  // Epoch→hazard baton: after the grace period the epoch domain runs
  // pass(), which moves the payload into the hazard domain's retired list.
  struct Handoff {
    HazardDomain* dom;
    void* obj;
    void (*del)(void*);

    static void pass(void* p) {
      Handoff* h = static_cast<Handoff*>(p);
      h->dom->retire_with(h->obj, h->del);
      delete h;
    }
  };

  EpochDomain* epoch_;
  HazardDomain* hazard_;
};

}  // namespace lf::reclaim
