// Step counters implementing the paper's cost model.
//
// Section 3.4: "it is only essential to calculate the number of C&S attempts,
// the number of backlink pointer traversals (line 10 in TryFlag and line 18 in
// Insert), and the number of next_node and curr_node pointer updates by
// searches (lines 6 and 8 in SearchFrom respectively). Counting these steps
// gives an accurate picture of the required time (up to a constant factor)."
//
// Every data structure in this repository increments these counters at
// exactly those points, so benchmarks can report costs in the paper's own
// units — schedule-determined and hardware-independent — in addition to wall
// clock. Counters are thread-local (an unshared cache line per thread, plain
// relaxed stores, ~1ns per increment) and are aggregated on demand through a
// registry that also retains the totals of exited threads.
#pragma once

#include <atomic>
#include <cstdint>

#include "lf/util/align.h"
#include "lf/util/histogram.h"

namespace lf::stats {

// X-macro over every counter so the TLS block, the plain snapshot struct and
// their arithmetic never go out of sync.
//
//   cas_attempt          every C&S executed (success or failure)
//   cas_success          every successful C&S
//   insert_cas           successful insertion C&S     (type 1, Def 4)
//   flag_cas             successful flagging C&S      (type 2, Def 4)
//   mark_cas             successful marking C&S       (type 3, Def 4)
//   pdelete_cas          successful physical-deletion C&S (type 4, Def 4)
//   backlink_traversal   one hop along a backlink chain
//   next_update          next_node pointer update in a search loop
//   curr_update          curr_node pointer update in a search loop
//   help_marked          invocations of HelpMarked
//   help_flagged         invocations of HelpFlagged
//   restart              full restarts from the head (Harris/Michael style)
//   node_retired         nodes handed to the reclaimer
//   node_freed           nodes actually freed by the reclaimer
//   op_insert/erase/search   completed dictionary operations
//   finger_hit           searches that started from a validated finger
//   finger_miss          searches that fell back to the head (no usable
//                        finger: empty slot, stale reclaimer token, key
//                        outside the cached window, or unrecoverable mark)
//   finger_skip          levels NOT descended thanks to a finger hit,
//                        i.e. (head entry level - finger entry level)
//                        summed over hits — the "steps saved" proxy
//   epoch_eject          epoch slots neutralized by a stalled-pin advancer
//                        (reclaim/epoch.h: the slot's pin no longer blocks
//                        the global epoch; frees divert to quarantine)
//   epoch_eject_ack      ejected guards acknowledged at unpin (the thread
//                        resumed; once no ejections are outstanding the
//                        quarantine drains)
//   quarantine_in        retired nodes diverted to a domain quarantine
//                        because an ejection was outstanding at free time
//   quarantine_free      quarantine nodes freed after recovery (every
//                        ejected reader acknowledged or was declared dead)
//   orphan_adopt         items a survivor adopted from a stalled thread:
//                        retired nodes from its epoch limbo lists or hazard
//                        retire list, blocks from its pool freelists (one
//                        inc per item, not per record)
//
// The finger_* counters are bookkeeping for the hint layer (sync/finger.h),
// NOT steps of the paper's cost model: essential_steps() must never include
// them. Work a finger actually causes (its backlink-recovery hops, the
// traversal from the hint) is already charged to the regular step counters.
// The resilience counters (epoch_eject .. orphan_adopt) are likewise
// bookkeeping for the stalled-thread subsystem, never essential steps.
#define LF_STEP_COUNTER_FIELDS(X) \
  X(cas_attempt)                  \
  X(cas_success)                  \
  X(insert_cas)                   \
  X(flag_cas)                     \
  X(mark_cas)                     \
  X(pdelete_cas)                  \
  X(backlink_traversal)           \
  X(next_update)                  \
  X(curr_update)                  \
  X(help_marked)                  \
  X(help_flagged)                 \
  X(restart)                      \
  X(node_retired)                 \
  X(node_freed)                   \
  X(op_insert)                    \
  X(op_erase)                     \
  X(op_search)                    \
  X(finger_hit)                   \
  X(finger_miss)                  \
  X(finger_skip)                  \
  X(epoch_eject)                  \
  X(epoch_eject_ack)              \
  X(quarantine_in)                \
  X(quarantine_free)              \
  X(orphan_adopt)

// Single-writer counter readable by other threads. The owner's increment is a
// relaxed load+store pair (no lock prefix); concurrent readers may observe a
// slightly stale value, which is fine for statistics.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    v_.store(v_.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
  }
  std::uint64_t get() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void set(std::uint64_t n) noexcept {
    v_.store(n, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

// Plain-value snapshot of all counters, with the arithmetic benches need.
struct Snapshot {
#define LF_DECL(name) std::uint64_t name = 0;
  LF_STEP_COUNTER_FIELDS(LF_DECL)
#undef LF_DECL

  Snapshot operator-(const Snapshot& rhs) const noexcept {
    Snapshot out;
#define LF_SUB(name) out.name = name - rhs.name;
    LF_STEP_COUNTER_FIELDS(LF_SUB)
#undef LF_SUB
    return out;
  }

  Snapshot& operator+=(const Snapshot& rhs) noexcept {
#define LF_ADD(name) name += rhs.name;
    LF_STEP_COUNTER_FIELDS(LF_ADD)
#undef LF_ADD
    return *this;
  }

  // The paper's "essential steps" (Section 3.4).
  std::uint64_t essential_steps() const noexcept {
    return cas_attempt + backlink_traversal + next_update + curr_update;
  }

  std::uint64_t cas_failures() const noexcept {
    return cas_attempt - cas_success;
  }

  std::uint64_t total_ops() const noexcept {
    return op_insert + op_erase + op_search;
  }

  // "Extra steps" in the sense of Def 4 are those caused by interference;
  // CAS failures and backlink traversals are always extra.
  double steps_per_op() const noexcept {
    const std::uint64_t ops = total_ops();
    return ops == 0 ? 0.0
                    : static_cast<double>(essential_steps()) /
                          static_cast<double>(ops);
  }

  // Fraction of finger-eligible searches that started from a validated
  // hint. 0 when the finger layer is disabled or unused.
  double finger_hit_rate() const noexcept {
    const std::uint64_t total = finger_hit + finger_miss;
    return total == 0 ? 0.0
                      : static_cast<double>(finger_hit) /
                            static_cast<double>(total);
  }
};

// Per-thread counter block, padded so no two threads share a line.
struct alignas(kCacheLineSize) StepCounters {
#define LF_DECL(name) Counter name;
  LF_STEP_COUNTER_FIELDS(LF_DECL)
#undef LF_DECL
  // Backlink-chain lengths (see chain_hist_tls). Owner-written and read
  // only at quiescent points, so it needs no atomics.
  Histogram chain_hist;

  StepCounters();
  ~StepCounters();
  StepCounters(const StepCounters&) = delete;
  StepCounters& operator=(const StepCounters&) = delete;

  Snapshot read() const noexcept {
    Snapshot s;
#define LF_READ(name) s.name = name.get();
    LF_STEP_COUNTER_FIELDS(LF_READ)
#undef LF_READ
    return s;
  }
};

// The calling thread's counter block. First use registers the block in the
// global registry; thread exit folds its totals (and its chain histogram)
// into the drained accumulators so aggregate() and aggregate_chain_hist()
// never lose counts. Inline, so a search's per-level counter fetch is a
// TLS access rather than a call; the constructor and destructor that do
// the registering stay in counters.cpp.
inline StepCounters& tls() {
  thread_local StepCounters block;
  return block;
}

// Sum over all live threads plus everything drained from exited threads.
// Exact when no counted code is executing concurrently (the normal benchmark
// usage: snapshot, run workers to join, snapshot again, subtract).
Snapshot aggregate();

// Thread-local histogram of backlink-chain lengths: every time an operation
// recovers from a failed C&S by walking a backlink chain, the length of that
// walk is recorded here. Experiment E7 uses this to show the flag bits keep
// chains short (the FRListNoFlag ablation lets them grow).
Histogram& chain_hist_tls();

// Merged view across live and exited threads (same caveats as aggregate()).
Histogram aggregate_chain_hist();

// Zero all live thread-local chain histograms and the drained accumulator.
// Only call while no instrumented code runs concurrently.
void reset_chain_hist();

}  // namespace lf::stats
