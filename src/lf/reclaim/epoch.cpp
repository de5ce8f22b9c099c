#include "lf/reclaim/epoch.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <sstream>

#include "lf/chaos/chaos.h"

namespace lf::reclaim {
namespace {

// Slots a dying domain could not delete because their owner thread was
// still pinned (contract violation, diagnosed in ~EpochDomain). Immortal
// and reachable, so the abandoned ThreadStates are neither use-after-free
// hazards for the parked thread's eventual unpin nor leaks to LSan.
struct AbandonedSlots {
  std::mutex mu;
  std::vector<void*> slots;
  std::atomic<std::uint64_t> count{0};
};

AbandonedSlots& abandoned() {
  static AbandonedSlots* a = new AbandonedSlots;
  return *a;
}

}  // namespace

EpochDomain::EpochDomain() {
  global_epoch_->store(kBuckets, std::memory_order_relaxed);  // start > grace
}

EpochDomain::~EpochDomain() {
  records_.close();  // first: any thread exiting after this point skips us
  drain();
  // Precondition: no thread is still operating on structures that use this
  // domain, so all remaining garbage is quiescent: the orphan, quarantine
  // and limbo lists free themselves as the members and slots are destroyed.
  // The quarantine goes unconditionally: the abandoned-slot path below
  // covers threads parked OUTSIDE any traversal of domain-managed nodes.
  std::lock_guard lock(records_.mutex());
  std::erase_if(records_.slots(), [&](const auto& slot) {
    ThreadState* ts = slot.record;
    const std::uint64_t w = ts->state->load(std::memory_order_seq_cst);
    if ((w & kActiveBit) == 0) return false;
    // Diagnostic: the "domain outlives every thread" contract is violated —
    // a thread is still pinned (typically a victim parked mid-operation).
    // Deleting its slot would hand the parked thread a dangling pointer for
    // its eventual unpin store, so abandon the slot to an immortal registry
    // instead: settle any ejection (the quarantine is freed regardless) and
    // disarm the slot so the unpin is a plain store that never touches this
    // dead domain.
    if ((w & kEjectedBit) != 0) {
      ejected_count_.fetch_sub(1, std::memory_order_seq_cst);
    }
    ts->resilient.store(false, std::memory_order_seq_cst);
    ts->state->store(w & ~kEjectedBit, std::memory_order_seq_cst);
    for (RetiredList& bucket : ts->limbo) bucket.free_all();
    ts->ready.free_all();
    abandoned().count.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard alock(abandoned().mu);
      abandoned().slots.push_back(ts);
    }
    std::fprintf(stderr,
                 "lf::reclaim: EpochDomain %llu destroyed while a thread "
                 "is still pinned (epoch %llu); slot abandoned\n",
                 static_cast<unsigned long long>(records_.id()),
                 static_cast<unsigned long long>(w >> kEpochShift));
    return true;
  });
}

EpochDomain& EpochDomain::global() {
  static EpochDomain* d = new EpochDomain;  // immortal: see header contract
  return *d;
}

std::uint64_t EpochDomain::abandoned_slots() noexcept {
  return abandoned().count.load(std::memory_order_relaxed);
}

std::uint64_t EpochDomain::publish_armed(ThreadState& ts) {
  // A fresh beat: the blame detector treats a frozen (word, heartbeat) pair
  // as a stalled pin, so every sign of life must move one of the two. Only
  // an armed slot beats, which keeps the locked RMW off the disarmed pin.
  // Skipping it there is sound for two reasons. First, set_resilience()
  // sets every slot's mirror under the registry lock, and blame rounds run
  // under that lock, so every round happens after the mirrors are set.
  // Second, an ejection needs the (word, beat) pair frozen across
  // blame_threshold advances, all of them after arming. A pin that starts
  // after arming reads the set mirror and beats.
  ts.heartbeat.fetch_add(1, std::memory_order_relaxed);
  for (;;) {
    const std::uint64_t e = global_epoch_->load(std::memory_order_seq_cst);
    const std::uint64_t word = (e << kEpochShift) | kActiveBit;
    // An armed advancer may eject us between loop iterations (a thread
    // parked inside this loop is indistinguishable from a stalled one).
    // The exchange claims any ejected bit atomically so the ejection is
    // settled, never silently erased. Settling here is safe: we hold no
    // references yet — this is the outermost pin being established.
    const std::uint64_t prev =
        ts.state->exchange(word, std::memory_order_seq_cst);
    if ((prev & kEjectedBit) != 0) settle_ejection(&ts, /*clear_state=*/false);
    if (global_epoch_->load(std::memory_order_seq_cst) == e) return e;
  }
}

void EpochDomain::Guard::unpin_armed() {
  // Armed domain: the advancer can CAS the ejected bit in at any moment, so
  // retiring the pin must be a CAS — a blind store could erase the bit and
  // leak an unsettled ejection (the quarantine would never drain).
  std::uint64_t w = ts_->state->load(std::memory_order_relaxed);
  for (;;) {
    if ((w & kEjectedBit) != 0) {
      // We were ejected while (apparently) stalled and are now past the
      // guarded region: acknowledge, which may let the quarantine drain.
      domain_.settle_ejection(ts_, /*clear_state=*/true);
      return;
    }
    if (ts_->state->compare_exchange_weak(w, w & ~kActiveBit,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
      return;
    }
  }
}

void EpochDomain::retire_erased(void* object, void (*deleter)(void*)) {
  LF_CHAOS_POINT(kEpochRetire);
  Guard pin(*this);  // keep our slot registered while touching its lists
  ThreadState& ts = *pin.ts_;
  // File under the CURRENT global epoch, not this thread's pinned epoch.
  // A pinned reader that could still reach the object was pinned no later
  // than the object's unlink, so (global epoch now) >= (its pin epoch) by
  // monotonicity, and freeing at +2 cannot overtake it. Filing under our
  // own pinned epoch would be unsound: it can lag the global by one, which
  // shaves the grace period to a single epoch for readers pinned at the
  // current one (found by ThreadSanitizer on the churn stress test).
  const std::uint64_t e = global_epoch_->load(std::memory_order_seq_cst);
  const int idx = static_cast<int>(e % kBuckets);
  if (ts.limbo_epoch[idx] != e) {
    // Residue collision: existing content was filed at <= e - 3, which is
    // already past the 2-epoch grace period: it is ready.
    ts.ready.splice(ts.limbo[idx]);
    ts.limbo_epoch[idx] = e;
  }
  ts.limbo[idx].push(object, deleter);
  ts.add_retired(1);
  stats::tls().node_retired.inc();
  if (!ts.ready.empty()) free_ready(ts, kFreeBudget);
  if (++ts.retire_since_scan >= kAdvanceEvery) {
    ts.retire_since_scan = 0;
    try_advance();
  }
}

std::uint64_t EpochDomain::retired_count() {
  std::lock_guard lock(records_.mutex());
  return retired_count_locked();
}

std::uint64_t EpochDomain::retired_count_locked() {
  std::uint64_t n = retired_live_->load(std::memory_order_relaxed);
  for (const auto& slot : records_.slots())
    n += slot.record->retired.load(std::memory_order_relaxed);
  return n;
}

std::uint64_t EpochDomain::ready_count() {
  return records_.local().ready.size();
}

bool EpochDomain::validate_accounting() {
  std::lock_guard lock(records_.mutex());
  bool ok = true;
  std::uint64_t held = quarantine_.size();
  for (const RetiredList& orphans : orphans_) held += orphans.size();
  ok &= retired_live_->load(std::memory_order_relaxed) == held;
  ok &= quarantine_depth_.load(std::memory_order_relaxed) == quarantine_.size();
  for (const auto& slot : records_.slots()) {
    const ThreadState& ts = *slot.record;
    std::uint64_t in_slot = ts.ready.size();
    for (const RetiredList& bucket : ts.limbo) in_slot += bucket.size();
    ok &= ts.retired.load(std::memory_order_relaxed) == in_slot;
    held += in_slot;
  }
  return ok && retired_count_locked() == held;
}

std::uint64_t EpochDomain::pinned_epoch() {
  ThreadState& ts = records_.local();
  assert(ts.pin_depth > 0 && "pinned_epoch() requires an active Guard");
  return ts.state->load(std::memory_order_relaxed) >> kEpochShift;
}

EpochDomain::ThreadState* EpochDomain::new_record() {
  auto* ts = new ThreadState;
  ts->resilient.store(armed_, std::memory_order_relaxed);
  return ts;
}

void EpochDomain::on_thread_exit(ThreadState& ts) {
  assert(ts.pin_depth == 0 && "thread exited while pinned");
  orphan_limbo_locked(ts);
  ts.state->store(0, std::memory_order_seq_cst);
}

std::uint64_t EpochDomain::orphan_limbo_locked(ThreadState& ts) {
  // The ready nodes are ripe already: as if filed at epoch 0, they join
  // orphan bucket 0 without moving its epoch.
  std::uint64_t moved = ts.ready.size();
  orphans_[0].splice(ts.ready);
  for (int b = 0; b < kBuckets; ++b) {
    if (ts.limbo[b].empty()) continue;
    moved += ts.limbo[b].size();
    orphans_[b].splice(ts.limbo[b]);
    orphan_epochs_[b] = std::max(orphan_epochs_[b], ts.limbo_epoch[b]);
    ts.limbo_epoch[b] = 0;
  }
  retired_live_->fetch_add(ts.retired.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
  ts.retired.store(0, std::memory_order_relaxed);
  ts.retire_since_scan = 0;
  if (blamed_slot_ == &ts) {
    blamed_slot_ = nullptr;  // the suspect left; drop the stale blame
    blame_streak_ = 0;
  }
  return moved;
}

void EpochDomain::set_resilience(const ResilienceOptions& opts) {
  std::lock_guard lock(records_.mutex());
  resilience_ = opts;
  blamed_slot_ = nullptr;
  blame_streak_ = 0;
  if (opts.neutralize && !armed_) {
    armed_ = true;  // sticky: see header
    for (const auto& slot : records_.slots())
      slot.record->resilient.store(true, std::memory_order_seq_cst);
  }
}

bool EpochDomain::note_straggler_locked(ThreadState* ts, std::uint64_t word) {
  if (!resilience_.neutralize) return false;
  const std::uint64_t beat = ts->heartbeat.load(std::memory_order_relaxed);
  if (ts != blamed_slot_ || word != blamed_word_ || beat != blamed_beat_) {
    blamed_slot_ = ts;  // new suspect, or the old one showed life: restart
    blamed_word_ = word;
    blamed_beat_ = beat;
    blame_streak_ = 1;
    return false;
  }
  if (++blame_streak_ < resilience_.blame_threshold) return false;
  blame_streak_ = 0;
  blamed_slot_ = nullptr;
  // Eject. Order matters (both seq_cst): the count increment precedes the
  // bit CAS — and therefore every epoch advance this ejection enables — so
  // any thread that frees because it observed the advanced epoch also
  // observes the outstanding ejection and diverts to the quarantine
  // (safety argument in DESIGN.md §11).
  ejected_count_.fetch_add(1, std::memory_order_seq_cst);
  std::uint64_t expected = word;
  if (!ts->state->compare_exchange_strong(expected, word | kEjectedBit,
                                          std::memory_order_seq_cst)) {
    // The owner moved after all — not stalled. Undo.
    ejected_count_.fetch_sub(1, std::memory_order_seq_cst);
    return false;
  }
  stats::tls().epoch_eject.inc();
  return true;
}

bool EpochDomain::try_advance() {
  LF_CHAOS_POINT(kEpochAdvance);  // before the registry lock: parking a
                                  // victim here must not block survivors
  const std::uint64_t e = global_epoch_->load(std::memory_order_seq_cst);
  bool ejected = false;
  bool advanced = false;
  {
    std::lock_guard lock(records_.mutex());
    ThreadState* straggler = nullptr;
    std::uint64_t straggler_word = 0;
    for (const auto& slot : records_.slots()) {
      const std::uint64_t w =
          slot.record->state->load(std::memory_order_seq_cst);
      if ((w & kActiveBit) == 0) continue;
      if ((w & kEjectedBit) != 0) continue;  // neutralized: not blocking
      if ((w >> kEpochShift) != e) {
        straggler = slot.record;
        straggler_word = w;
        break;
      }
    }
    if (straggler != nullptr) {
      ejected = note_straggler_locked(straggler, straggler_word);
    } else {
      blamed_slot_ = nullptr;
      blame_streak_ = 0;
      std::uint64_t expected = e;
      advanced = global_epoch_->compare_exchange_strong(
          expected, e + 1, std::memory_order_seq_cst);
      // On CAS failure someone else advanced; they handle the orphans.
      if (advanced) {
        for (int b = 0; b < kBuckets; ++b) {
          if (orphan_epochs_[b] + 2 <= e + 1) dispose_orphans_locked(b);
        }
      }
    }
  }
  if (ejected) LF_CHAOS_POINT(kEpochEject);  // after the lock: see chaos.h
  if (advanced) free_settled_quarantine();
  return advanced;
}

void EpochDomain::settle_ejection(ThreadState* ts, bool clear_state) {
  LF_CHAOS_POINT(kEpochEjectAck);  // entry, before the registry lock
  {
    std::lock_guard lock(records_.mutex());
    if (clear_state) {
      const std::uint64_t w = ts->state->load(std::memory_order_seq_cst);
      if ((w & kEjectedBit) == 0) return;  // settled by adopt_stalled
      ts->state->store(0, std::memory_order_seq_cst);
    }
    ejected_count_.fetch_sub(1, std::memory_order_seq_cst);
    ts->heartbeat.fetch_add(1, std::memory_order_relaxed);
  }
  stats::tls().epoch_eject_ack.inc();
  free_settled_quarantine();
}

bool EpochDomain::adopt_stalled(std::thread::id tid) {
  {
    std::lock_guard lock(records_.mutex());
    ThreadState* ts = records_.find_owner(tid);
    if (ts == nullptr) return false;
    stats::tls().orphan_adopt.inc(orphan_limbo_locked(*ts));
    // The caller vouches the owner cannot run concurrently, so the slot
    // word can be retired outright; pin_depth and slot registration are
    // left for the owner's own unwind if it ever resumes (contract: then
    // it must be parked outside any guarded region, i.e. state is
    // already inactive and this store is a no-op).
    const std::uint64_t w = ts->state->load(std::memory_order_seq_cst);
    ts->state->store(0, std::memory_order_seq_cst);
    if ((w & kEjectedBit) != 0) {
      ejected_count_.fetch_sub(1, std::memory_order_seq_cst);
      stats::tls().epoch_eject_ack.inc();
    }
    ts->heartbeat.fetch_add(1, std::memory_order_relaxed);
  }
  free_settled_quarantine();
  return true;
}

bool EpochDomain::remediate_now() {
  std::uint32_t rounds;
  {
    std::lock_guard lock(records_.mutex());
    // Enough failed advances to push the blame streak over the threshold,
    // plus a few successful ones to move every residue class.
    rounds = resilience_.blame_threshold + kBuckets + 2;
  }
  const std::uint64_t e0 = epoch();
  for (std::uint32_t i = 0; i < rounds; ++i) try_advance();
  const bool freed = free_settled_quarantine();
  return freed || epoch() != e0;
}

std::string EpochDomain::stall_report() {
  std::ostringstream os;
  const std::uint64_t e = epoch();
  std::lock_guard lock(records_.mutex());
  os << "epoch domain: epoch=" << e
     << " retired_backlog=" << retired_count_locked()
     << " quarantine_depth=" << quarantine_depth()
     << (quarantine_depth() > kQuarantineSoftCap ? " (OVER soft cap)" : "")
     << " ejected=" << ejected_count()
     << " neutralize=" << (resilience_.neutralize ? "on" : "off") << "\n";
  int i = 0;
  for (const auto& slot : records_.slots()) {
    const ThreadState* ts = slot.record;
    const std::uint64_t w = ts->state->load(std::memory_order_seq_cst);
    os << "  slot " << i++ << (slot.in_use() ? "" : " (idle)")
       << " active=" << ((w & kActiveBit) != 0 ? 1 : 0)
       << " ejected=" << ((w & kEjectedBit) != 0 ? 1 : 0);
    if ((w & kActiveBit) != 0) {
      os << " pinned_epoch=" << (w >> kEpochShift)
         << " behind=" << (e - (w >> kEpochShift));
    }
    os << " heartbeat=" << ts->heartbeat.load(std::memory_order_relaxed)
       << "\n";
  }
  return os.str();
}

void EpochDomain::sweep(ThreadState& ts, std::uint64_t observed_epoch) {
  for (int b = 0; b < kBuckets; ++b) {
    if (!ts.limbo[b].empty() && ts.limbo_epoch[b] + 2 <= observed_epoch)
      ts.ready.splice(ts.limbo[b]);
  }
  ts.seen_epoch = observed_epoch;
}

void EpochDomain::free_ready(ThreadState& ts, std::uint64_t budget) {
  // Checked here, at free time, not at the sweep: the count only falls when
  // an ejected reader has left the region it was ejected in, so a later
  // check sees every ejection an earlier one would have (DESIGN.md §11).
  // seq_cst pairs with the count-increment-before-bit-CAS order in
  // note_straggler_locked.
  if (ejected_count_.load(std::memory_order_seq_cst) == 0) {
    ts.sub_retired(ts.ready.free_front(budget));
    return;
  }
  // An ejected reader may resume and keep dereferencing anything it could
  // reach before it stalled: run no deleters, quarantine the whole list.
  const std::uint64_t n = ts.ready.size();
  {
    std::lock_guard lock(records_.mutex());
    quarantine_.splice(ts.ready);
    ts.sub_retired(n);
    retired_live_->fetch_add(n, std::memory_order_relaxed);
    quarantine_depth_.fetch_add(n, std::memory_order_relaxed);
  }
  stats::tls().quarantine_in.inc(n);
}

void EpochDomain::dispose_orphans_locked(int b) {
  RetiredList& list = orphans_[b];
  if (list.empty()) return;
  if (ejected_count_.load(std::memory_order_seq_cst) == 0) {
    retired_live_->fetch_sub(list.free_all(), std::memory_order_relaxed);
    return;
  }
  const std::uint64_t n = list.size();
  quarantine_.splice(list);
  quarantine_depth_.fetch_add(n, std::memory_order_relaxed);
  stats::tls().quarantine_in.inc(n);
}

bool EpochDomain::free_settled_quarantine() {
  RetiredList q;
  {
    std::lock_guard lock(records_.mutex());
    if (ejected_count_.load(std::memory_order_seq_cst) == 0)
      q.splice(quarantine_);
  }
  // Outside the lock: deleters may re-enter the domain.
  if (q.empty()) return false;
  quarantine_depth_.fetch_sub(q.size(), std::memory_order_relaxed);
  stats::tls().quarantine_free.inc(q.size());
  retired_live_->fetch_sub(q.free_all(), std::memory_order_relaxed);
  return true;
}

void EpochDomain::drain() {
  ThreadState& ts = records_.local();
  assert(ts.pin_depth == 0 && "drain() called under a guard");
  // Each successful advance retires one more residue class; three passes
  // drain everything the calling thread and exited threads have retired,
  // provided no other thread is pinned.
  for (int i = 0; i < kBuckets; ++i) {
    try_advance();
    sweep(ts, global_epoch_->load(std::memory_order_seq_cst));
    if (!ts.ready.empty()) free_ready(ts, ts.ready.size());
  }
  free_settled_quarantine();
}

}  // namespace lf::reclaim
