// Epoch-based reclamation (EBR), after Fraser's thesis (the paper's
// reference [2]) — the default memory manager for every lock-free structure
// in this repository.
//
// Scheme: a global epoch counter advances when every thread currently inside
// a critical region ("pinned") has observed the current epoch. A node
// retired in epoch r becomes unreachable-by-new-operations at retire time,
// so once the global epoch reaches r+2 no pinned operation can still hold a
// reference and the node may be freed.
//
// Why this is safe for THIS paper's structures even though physically
// deleted nodes remain reachable through backlink chains: to follow a
// backlink into a physically deleted node X, an operation must hold some
// node Y whose backlink targets X, and it must have found Y while Y was
// still in the list — which happens-before Y's physical deletion, which
// happens-before X's (a flagged node cannot be marked until its successor's
// deletion completes, so deletions of adjacent nodes complete right-to-left),
// which happens-before X's retirement. Hence any operation that can ever
// reach X was pinned before X was retired, and the 2-epoch grace period
// covers it.
//
// Concurrency notes:
//   * pin() publishes (epoch, active) in a single word with a verify loop,
//     so the epoch a thread advertises is never stale relative to the global
//     it verified — the standard correctness requirement for 3-bucket EBR.
//     The publish is a seq_cst store (one xchg on x86), the one locked
//     instruction of a disarmed pin: the store must be ordered before the
//     verify load. The disarmed pin is inline below; the armed one (see
//     resilience) is out of line.
//   * unpin() is a release store. Every access the critical region made is
//     sequenced before it, and an advancer reads the slot word with a
//     seq_cst (acquire) load, so those accesses happen before the advance
//     and before any free that observes the advanced epoch.
//   * retire() is wait-free (thread-local list append). Every slot counts
//     its own retired-but-unfreed nodes (limbo and ready, below) in an
//     owner-written relaxed counter; retired_count() sums the slots under
//     the registry lock, and an exiting thread folds its count into the
//     shared one, which otherwise moves only for orphans and the
//     quarantine. An advance is attempted every kAdvanceEvery retirements.
//   * Freeing is spread out instead of batched. A pin that observes an
//     epoch its thread has not seen yet moves the thread's ripe limbo
//     buckets onto its `ready` list; each outermost pin and each retire
//     then frees at most kFreeBudget ready nodes. A thread frees nodes at
//     up to kFreeBudget per retirement but adds only one, so its ready
//     list drains between sweeps; with no other thread pinned it never
//     exceeds kSoloReadyBound nodes.
//   * Threads may come and go (registry.h): a thread's limbo and ready
//     lists are orphaned to the domain on thread exit and adopted by a
//     later advancer.
//
// Stalled-thread resilience (DESIGN.md §11): plain EBR is only as live as
// its slowest reader — a thread parked or killed while pinned stalls the
// epoch forever and retire backlogs grow without bound. When armed via
// set_resilience(), the advancer runs a stalled-pin detector: a slot whose
// state word AND per-slot heartbeat stay frozen across `blame_threshold`
// consecutive failed advances is NEUTRALIZED (its word is CAS'd to an
// *ejected* state that no longer blocks the epoch). Ejection alone would be
// unsound — the parked reader may resume and keep dereferencing — so while
// any ejection is outstanding every list that becomes freeable diverts into
// a domain QUARANTINE whose deleters do not run. The budgeted free checks
// for an ejection before each batch, not at the sweep, and then
// quarantines the whole ready list (why that is sound: DESIGN.md §11).
// Only when every ejected reader has acknowledged (its outermost unpin, or
// its next pin's publish loop, or adopt_stalled() on a thread vouched dead)
// does the quarantine drain. The epoch makes progress and the backlog is
// bounded by the churn during the stall, at the cost of deferring — never
// skipping — the frees.
//
// A domain must outlive every thread that still uses it; the process-wide
// default domain (EpochDomain::global()) trivially satisfies this. A thread
// that exits after a domain it used is gone skips it (the registry checks
// the domain is alive), so tests may create private domains freely. If a
// domain is nevertheless destroyed while a thread is still pinned (a parked
// victim), the destructor diagnoses the contract violation and abandons the
// slot to an immortal registry instead of handing the victim a dangling
// pointer — see abandoned_slots().
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "lf/chaos/chaos.h"
#include "lf/instrument/counters.h"
#include "lf/reclaim/registry.h"
#include "lf/util/align.h"

namespace lf::reclaim {

class EpochDomain {
  struct ThreadState;  // per-thread slot; defined below the class

 public:
  EpochDomain();
  ~EpochDomain();
  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;

  // The process-wide domain used by EpochReclaimer by default.
  static EpochDomain& global();

  // RAII pin token. Operations must hold one while dereferencing any node
  // pointer obtained from a shared location. Re-entrant pinning is supported
  // (inner guards are no-ops), which helping routines rely on.
  class Guard {
   public:
    explicit Guard(EpochDomain& domain);
    ~Guard();
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    friend class EpochDomain;  // retire_erased files under the pinned epoch
    void unpin_armed();
    EpochDomain& domain_;
    ThreadState* ts_;
    bool outermost_;
  };

  Guard guard() { return Guard(*this); }

  // Hand over an unlinked node; it is deleted (via `delete`) after the grace
  // period. Must be called at most once per node, under a guard or not.
  template <typename Node>
  void retire(Node* node) {
    retire_erased(node, [](void* p) { delete static_cast<Node*>(p); });
  }

  // Deleter-based retirement: `deleter(object)` runs after the grace
  // period. This is the hook FRSkipList's flat tower blocks use to return
  // to the pool only once no pinned reader can still hold a pointer into
  // them (FRSkipList::destroy_tower) — the epoch-integrated recycle path.
  void retire_with(void* object, void (*deleter)(void*)) {
    retire_erased(object, deleter);
  }

  // Drives epochs forward and frees everything whose grace period elapsed.
  // Only fully drains when no thread is pinned. Intended for tests,
  // structure destructors and benchmark teardown.
  void drain();

  // Diagnostics.
  std::uint64_t epoch() const noexcept {
    return global_epoch_->load(std::memory_order_acquire);
  }

  // The epoch the CALLING thread currently advertises. Only meaningful
  // while the thread holds a Guard (asserted). This is the value the
  // finger layer (sync/finger.h) uses as its validity token: while a
  // thread stays pinned advertising epoch e, the global epoch cannot pass
  // e + 1, so nothing retired at epoch >= e (i.e. anything the thread
  // reached under a pin that advertised e) can be freed. Two pins that
  // advertise the SAME epoch therefore cover the same set of nodes.
  std::uint64_t pinned_epoch();
  // Retired nodes not yet freed: every slot's count plus the orphans and
  // the quarantine. Takes the registry lock; exact at quiescence.
  std::uint64_t retired_count();

  // Quiescence only: true iff every slot's count equals the sizes of its
  // limbo buckets and ready list, the shared count equals the orphans plus
  // the quarantine, the quarantine gauge equals its size, and so
  // retired_count() equals everything the domain holds.
  bool validate_accounting();

  // Most ready nodes freed per outermost pin and per retire.
  static constexpr std::uint64_t kFreeBudget = 2;
  // How many retirements between reclamation attempts.
  static constexpr std::uint64_t kAdvanceEvery = 64;
  // Bound on one thread's ready list while no other thread is pinned: each
  // epoch then lasts at most kAdvanceEvery of its retirements, so a sweep
  // moves at most that many nodes, and the kFreeBudget per retirement has
  // emptied the list before the next sweep.
  static constexpr std::uint64_t kSoloReadyBound = kAdvanceEvery;
  // Length of the calling thread's ready list.
  std::uint64_t ready_count();

  // ---- Stalled-thread resilience (DESIGN.md §11) ------------------------

  struct ResilienceOptions {
    // Arm the stalled-pin detector. Off by default: the hot paths then
    // behave exactly as plain EBR (unpin stays a single store).
    bool neutralize = false;
    // Failed advances blamed on one frozen slot before it is ejected. The
    // advancer runs every kAdvanceEvery retirements, so the grace bound for
    // neutralization is ~(blame_threshold + 1) * kAdvanceEvery retirements
    // of survivor churn after the victim stalls.
    std::uint32_t blame_threshold = 16;
  };

  // Documented soft bound on quarantine_depth(): exceeded depth is still
  // correct (nothing is freed early), but stall reports flag it. The
  // quarantine only grows while an ejection is outstanding, so its depth is
  // bounded by survivor churn during the stall window.
  static constexpr std::uint64_t kQuarantineSoftCap = 1 << 16;

  // Install resilience options. Arming is sticky: once a domain has been
  // armed, outermost unpins use a CAS (they must not erase a concurrent
  // ejection) even if neutralize is later set false.
  void set_resilience(const ResilienceOptions& opts);

  // Adopt every resource of a thread that the CALLER VOUCHES can no longer
  // run concurrently with this call (parked with a happens-before edge —
  // e.g. chaos::wait_parked() — or verifiably dead): its limbo lists move
  // to the domain orphans (grace period still respected), its slot stops
  // blocking the epoch, and an outstanding ejection of it is settled.
  // If the thread may later resume, it must be parked OUTSIDE any guarded
  // region (its pin-depth and slot registration are left untouched so a
  // resumed thread unwinds normally). Returns true if the thread owned a
  // slot here.
  bool adopt_stalled(std::thread::id tid);

  // Watchdog remediation hook: run the advancer often enough for the blame
  // detector to eject a stalled pin, then try to drain the quarantine.
  // Returns true if the epoch moved or quarantined/orphaned memory was
  // freed. Safe to call from a monitor thread (allocates no slot).
  bool remediate_now();

  // Human-readable per-slot stall dump: active/ejected bits, pinned epoch,
  // heartbeat, plus the domain gauges. For watchdog escalation reports.
  std::string stall_report();

  // Gauges for reports and benches.
  std::uint64_t quarantine_depth() const noexcept {
    return quarantine_depth_.load(std::memory_order_relaxed);
  }
  std::uint64_t ejected_count() const noexcept {
    return ejected_count_.load(std::memory_order_relaxed);
  }

  // Process-wide count of slots abandoned by ~EpochDomain because their
  // owner thread was still pinned (see class comment). A nonzero value is
  // a diagnosed contract violation, kept non-fatal so sanitizer jobs can
  // exercise the teardown path.
  static std::uint64_t abandoned_slots() noexcept;

 private:
  friend class Guard;
  friend class detail::RecordRegistry<EpochDomain, ThreadState>;
  using RetiredList = detail::RetiredList;

  // One limbo list per epoch residue class.
  static constexpr int kBuckets = 3;

  // Slot word layout: (epoch << kEpochShift) | ejected | active.
  static constexpr std::uint64_t kActiveBit = 1;
  static constexpr std::uint64_t kEjectedBit = 2;
  static constexpr unsigned kEpochShift = 2;

  void retire_erased(void* object, void (*deleter)(void*));
  // Publish an outermost pin; returns the verified epoch. The armed
  // variant claims a concurrent ejection with an exchange.
  std::uint64_t publish(ThreadState& ts);
  std::uint64_t publish_armed(ThreadState& ts);
  // Registry hooks (registry.h), registry lock held.
  ThreadState* new_record();
  void on_thread_exit(ThreadState& ts);
  // Move ts's limbo and ready lists and its count to the orphans and forget
  // any blame on it. Returns how many nodes moved. Lock held.
  std::uint64_t orphan_limbo_locked(ThreadState& ts);
  bool try_advance();
  // Move ts's buckets ripe at `observed_epoch` onto its ready list.
  void sweep(ThreadState& ts, std::uint64_t observed_epoch);
  // Free at most `budget` of ts's ready nodes, or, while an ejection is
  // outstanding, quarantine the whole list (no deleters run).
  void free_ready(ThreadState& ts, std::uint64_t budget);
  std::uint64_t retired_count_locked();

  // Free orphan bucket `b` if no ejection is outstanding, else splice it
  // into the quarantine. Lock held.
  void dispose_orphans_locked(int b);
  // Free the quarantine iff every ejection settled; true if it held
  // anything. Takes the registry lock.
  bool free_settled_quarantine();
  // Settle one outstanding ejection of `ts` (unpin ack or re-pin publish).
  void settle_ejection(ThreadState* ts, bool clear_state);
  // Blame detector; returns true when it ejected `ts`. Lock held.
  bool note_straggler_locked(ThreadState* ts, std::uint64_t word);

  CacheAligned<std::atomic<std::uint64_t>> global_epoch_;
  // Retired nodes no slot holds: the orphans and the quarantine.
  CacheAligned<std::atomic<std::uint64_t>> retired_live_;

  std::atomic<std::uint64_t> ejected_count_{0};    // unsettled ejections
  std::atomic<std::uint64_t> quarantine_depth_{0};

  // Every thread's slot; its mutex is the registry lock, which also guards
  // every field below.
  detail::RecordRegistry<EpochDomain, ThreadState> records_{*this};
  RetiredList orphans_[kBuckets];            // limbo of exited threads
  std::uint64_t orphan_epochs_[kBuckets] = {};
  RetiredList quarantine_;                   // deferred frees during ejection
  ResilienceOptions resilience_;
  bool armed_ = false;                       // sticky
  // Blame detector state: the advance-blocking slot, its frozen
  // word/heartbeat, and how many consecutive failed advances it has been
  // blamed for.
  ThreadState* blamed_slot_ = nullptr;
  std::uint64_t blamed_word_ = 0;
  std::uint64_t blamed_beat_ = 0;
  std::uint32_t blame_streak_ = 0;
};

// Per-thread slot inside a domain. `state` packs
// (epoch << kEpochShift) | ejected | active; it and `heartbeat` are the only
// fields other threads read on hot paths; `resilient` is owner-read and set
// under the registry lock; `retired` is owner-written and read by others
// under the registry lock; everything else is owner-only (or
// registry-lock-protected during thread exit and adoption).
struct EpochDomain::ThreadState {
  CacheAligned<std::atomic<std::uint64_t>> state;
  // Bumped on every outermost pin of an armed slot (and on ejection
  // settlement): the blame detector only ejects a slot whose (state,
  // heartbeat) pair froze.
  std::atomic<std::uint64_t> heartbeat{0};
  // Mirror of the domain's sticky arming flag: when set, unpin/publish use
  // RMWs that cannot erase a concurrently-set ejected bit. Per-slot (not
  // read from the domain) so a Guard outliving its domain — the abandoned
  // slot path — never dereferences the dead domain in ~Guard.
  std::atomic<bool> resilient{false};
  std::uint32_t pin_depth = 0;
  std::uint64_t seen_epoch = 0;  // the epoch of this slot's last sweep
  // Nodes in limbo and ready. Written only by the owner (or, with the
  // owner vouched stopped, by adoption), so a plain load/store pair.
  std::atomic<std::uint64_t> retired{0};
  RetiredList ready;  // ripe nodes awaiting the budgeted free
  RetiredList limbo[kBuckets];
  std::uint64_t limbo_epoch[kBuckets] = {};  // epoch the bucket was filed under
  std::uint64_t retire_since_scan = 0;

  void add_retired(std::uint64_t n) noexcept {
    retired.store(retired.load(std::memory_order_relaxed) + n,
                  std::memory_order_relaxed);
  }
  void sub_retired(std::uint64_t n) noexcept {
    retired.store(retired.load(std::memory_order_relaxed) - n,
                  std::memory_order_relaxed);
  }
};

inline std::uint64_t EpochDomain::publish(ThreadState& ts) {
  // Publish (epoch, active) and verify the global did not move past us; this
  // loop is what makes the advertised epoch trustworthy to advancers. Each
  // round re-reads the arming mirror, so arming mid-loop is seen before the
  // store.
  for (;;) {
    if (ts.resilient.load(std::memory_order_relaxed)) [[unlikely]]
      return publish_armed(ts);
    const std::uint64_t e = global_epoch_->load(std::memory_order_seq_cst);
    ts.state->store((e << kEpochShift) | kActiveBit, std::memory_order_seq_cst);
    if (global_epoch_->load(std::memory_order_seq_cst) == e) return e;
  }
}

inline EpochDomain::Guard::Guard(EpochDomain& domain)
    : domain_(domain), ts_(&domain.records_.local()) {
  outermost_ = (ts_->pin_depth++ == 0);
  if (!outermost_) return;
  LF_CHAOS_POINT(kEpochPin);  // before publishing: no lock held here
  const std::uint64_t e = domain_.publish(*ts_);
  if (e != ts_->seen_epoch) [[unlikely]] domain_.sweep(*ts_, e);
  if (!ts_->ready.empty()) [[unlikely]]
    domain_.free_ready(*ts_, kFreeBudget);
}

inline EpochDomain::Guard::~Guard() {
  --ts_->pin_depth;
  if (!outermost_) return;
  if (ts_->resilient.load(std::memory_order_relaxed)) [[unlikely]] {
    unpin_armed();
    return;
  }
  const std::uint64_t w = ts_->state->load(std::memory_order_relaxed);
  ts_->state->store(w & ~kActiveBit, std::memory_order_release);
}

// Policy adapter satisfying reclaimer_for<Node>, referencing a domain.
class EpochReclaimer {
 public:
  EpochReclaimer() : domain_(&EpochDomain::global()) {}
  explicit EpochReclaimer(EpochDomain& domain) : domain_(&domain) {}

  EpochDomain::Guard guard() { return domain_->guard(); }

  template <typename Node>
  void retire(Node* node) {
    domain_->retire(node);
  }

  void retire_with(void* object, void (*deleter)(void*)) {
    domain_->retire_with(object, deleter);
  }

  // Finger-layer hook (see EpochDomain::pinned_epoch).
  std::uint64_t pinned_epoch() { return domain_->pinned_epoch(); }

  EpochDomain& domain() noexcept { return *domain_; }

 private:
  EpochDomain* domain_;
};

}  // namespace lf::reclaim
