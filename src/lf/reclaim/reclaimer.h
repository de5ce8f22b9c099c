// Reclaimer policy interface.
//
// The paper deliberately leaves memory management out ("We have not
// explicitly incorporated a memory management technique", Section 5) and
// notes reference counting would apply because physically deleted nodes form
// no cycles. This repository instead makes reclamation a pluggable policy on
// every data structure:
//
//   * LeakyReclaimer  — never frees unlinked nodes; the paper's own setting.
//                       Useful to benchmark the pure algorithm (E9 baseline).
//   * EpochReclaimer  — epoch-based reclamation (Fraser). The default. Safe
//                       for this paper's structures *including backlink
//                       traversal of physically deleted nodes*, because a
//                       node retired in epoch r can only be reached by an
//                       operation already pinned when r began, and such an
//                       operation blocks the 2-epoch grace period.
//   * HazardDomain    — Michael's hazard pointers (reclaim/hazard.h), used
//                       raw by the MichaelListHP baseline, whose find() was
//                       designed for per-pointer protect/validate. It is not
//                       a policy for the FR structures: their backlink walks
//                       reach nodes no per-pointer check can vouch for.
//
// Both domains take their per-thread records and retire lists from one
// module, reclaim/registry.h.
//
// A policy provides:
//   Guard guard()            RAII critical-section token. All loads of
//                            shared node pointers must happen under a guard.
//   void retire(T* node)     hand an unlinked node over; it is deleted when
//                            no operation can still hold a reference.
#pragma once

#include <concepts>
#include <utility>

namespace lf::reclaim {

// Duck-typed policy concept used by the data-structure templates.
template <typename R, typename Node>
concept reclaimer_for = requires(R r, Node* n) {
  { r.guard() };
  { r.retire(n) };
};

// Extended policy for structures with pooled / non-trivially-freed memory
// (flat towers, pool-recycled nodes): retirement carries an explicit
// deleter that runs after the grace period, so the structure controls how
// the block returns to its arena. Epoch and Leaky provide it; the raw
// HazardDomain used by MichaelListHP keeps the narrower interface (that
// list owns its nodes individually).
template <typename R>
concept deferred_reclaimer = requires(R r, void* p, void (*d)(void*)) {
  { r.guard() };
  { r.retire_with(p, d) };
};

}  // namespace lf::reclaim
