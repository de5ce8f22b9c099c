#include "lf/reclaim/epoch.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <sstream>
#include <unordered_map>

#include "lf/chaos/chaos.h"

namespace lf::reclaim {
namespace {

// Domain id -> live domain. Used by thread-exit cleanup to avoid touching a
// destroyed domain. Heap-allocated and never destroyed so it is valid during
// late TLS teardown regardless of static destruction order.
struct DomainIdMap {
  std::mutex mu;
  std::unordered_map<std::uint64_t, EpochDomain*> map;
  std::atomic<std::uint64_t> next_id{1};
};

DomainIdMap& id_map() {
  static DomainIdMap* m = new DomainIdMap;
  return *m;
}

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

// Per-thread slot inside a domain. `state` packs
// (epoch << kEpochShift) | ejected | active; it and `heartbeat` are the only
// fields other threads read on hot paths; `resilient` is owner-read and set
// under the registry lock; everything else is owner-only (or
// registry-lock-protected during acquire/release/adopt).
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
  std::thread::id owner_id{};
  RetiredNode* limbo[kBuckets] = {};
  std::uint64_t limbo_epoch[kBuckets] = {};  // epoch the bucket was filed under
  std::uint64_t retire_since_scan = 0;
  std::uint32_t pin_depth = 0;
  bool in_use = false;
};

EpochDomain::EpochDomain() : domain_id_(id_map().next_id.fetch_add(1)) {
  global_epoch_->store(kBuckets, std::memory_order_relaxed);  // start > grace
  retired_live_->store(0, std::memory_order_relaxed);
  std::lock_guard lock(id_map().mu);
  id_map().map.emplace(domain_id_, this);
}

EpochDomain::~EpochDomain() {
  {
    // Unregister first: any thread exiting after this point skips us.
    std::lock_guard lock(id_map().mu);
    id_map().map.erase(domain_id_);
  }
  drain();
  // Precondition: no thread is still operating on structures that use this
  // domain, so every remaining limbo list is quiescent garbage.
  RetiredNode* q = nullptr;
  {
    std::lock_guard lock(registry_mu_);
    for (ThreadState* ts : slots_) {
      for (auto*& head : ts->limbo) {
        free_list(head, *retired_live_);
        head = nullptr;
      }
      const std::uint64_t w = ts->state->load(std::memory_order_seq_cst);
      if ((w & kActiveBit) != 0) {
        // Diagnostic: the "domain outlives every thread" contract is
        // violated — a thread is still pinned (typically a victim parked
        // mid-operation). Deleting its slot would hand the parked thread a
        // dangling pointer for its eventual unpin store, so abandon the
        // slot to an immortal registry instead: settle any ejection (the
        // quarantine is freed below regardless) and disarm the slot so the
        // unpin is a plain store that never touches this dead domain.
        if ((w & kEjectedBit) != 0) {
          ejected_count_.fetch_sub(1, std::memory_order_seq_cst);
        }
        ts->resilient.store(false, std::memory_order_seq_cst);
        ts->state->store(w & ~kEjectedBit, std::memory_order_seq_cst);
        abandoned().count.fetch_add(1, std::memory_order_relaxed);
        {
          std::lock_guard alock(abandoned().mu);
          abandoned().slots.push_back(ts);
        }
        std::fprintf(stderr,
                     "lf::reclaim: EpochDomain %llu destroyed while a thread "
                     "is still pinned (epoch %llu); slot abandoned\n",
                     static_cast<unsigned long long>(domain_id_),
                     static_cast<unsigned long long>(w >> kEpochShift));
        continue;
      }
      delete ts;
    }
    slots_.clear();
    for (auto*& head : orphans_) {
      free_list(head, *retired_live_);
      head = nullptr;
    }
    q = quarantine_;
    quarantine_ = nullptr;
    quarantine_depth_.store(0, std::memory_order_relaxed);
  }
  // Unconditional: by the teardown contract nothing can still dereference
  // this domain's garbage (the abandoned-slot path above covers threads
  // parked OUTSIDE any traversal of domain-managed nodes).
  free_list(q, *retired_live_);
}

EpochDomain& EpochDomain::global() {
  static EpochDomain* d = new EpochDomain;  // immortal: see header contract
  return *d;
}

std::uint64_t EpochDomain::abandoned_slots() noexcept {
  return abandoned().count.load(std::memory_order_relaxed);
}

EpochDomain::Guard::Guard(EpochDomain& domain)
    : domain_(domain), ts_(&domain.thread_state()) {
  outermost_ = (ts_->pin_depth++ == 0);
  if (!outermost_) return;
  LF_CHAOS_POINT(kEpochPin);  // before publishing: no lock held here
  // A fresh beat: the blame detector treats a frozen (word, heartbeat) pair
  // as a stalled pin, so every sign of life must move one of the two. Only
  // an armed slot beats, which keeps the locked RMW off the disarmed pin.
  // Skipping it there is sound for two reasons. First, set_resilience()
  // sets every slot's mirror under registry_mu_, and blame rounds also run
  // under that lock, so every round happens after the mirrors are set.
  // Second, an ejection needs the (word, beat) pair frozen across
  // blame_threshold advances, all of them after arming. A pin that starts
  // after arming reads the set mirror and beats.
  bool armed = ts_->resilient.load(std::memory_order_relaxed);
  if (armed) ts_->heartbeat.fetch_add(1, std::memory_order_relaxed);
  // Publish (epoch, active) and verify the global did not move past us; this
  // loop is what makes the advertised epoch trustworthy to advancers. A
  // retry re-reads the mirror, so arming mid-loop is seen before the store.
  for (;; armed = ts_->resilient.load(std::memory_order_relaxed)) {
    const std::uint64_t e =
        domain_.global_epoch_->load(std::memory_order_seq_cst);
    const std::uint64_t word = (e << kEpochShift) | kActiveBit;
    if (armed) {
      // An armed advancer may eject us between loop iterations (a thread
      // parked inside this loop is indistinguishable from a stalled one).
      // The exchange claims any ejected bit atomically so the ejection is
      // settled, never silently erased. Settling here is safe: we hold no
      // references yet — this is the outermost pin being established.
      const std::uint64_t prev =
          ts_->state->exchange(word, std::memory_order_seq_cst);
      if ((prev & kEjectedBit) != 0) {
        domain_.settle_ejection(ts_, /*clear_state=*/false);
      }
    } else {
      ts_->state->store(word, std::memory_order_seq_cst);
    }
    if (domain_.global_epoch_->load(std::memory_order_seq_cst) == e) {
      domain_.reclaim_bucket_locally(*ts_, e);
      break;
    }
  }
}

EpochDomain::Guard::~Guard() {
  if (!outermost_) {
    --ts_->pin_depth;
    return;
  }
  --ts_->pin_depth;
  if (!ts_->resilient.load(std::memory_order_relaxed)) {
    const std::uint64_t w = ts_->state->load(std::memory_order_relaxed);
    ts_->state->store(w & ~kActiveBit, std::memory_order_seq_cst);
    return;
  }
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
    // already past the 2-epoch grace period. Dispose of it before reusing
    // (diverts to the quarantine while an ejection is outstanding).
    dispose_list(ts.limbo[idx], /*locked=*/false);
    ts.limbo[idx] = nullptr;
    ts.limbo_epoch[idx] = e;
  }
  auto* rn = new RetiredNode{object, deleter, ts.limbo[idx]};
  ts.limbo[idx] = rn;
  retired_live_->fetch_add(1, std::memory_order_relaxed);
  stats::tls().node_retired.inc();
  if (++ts.retire_since_scan >= kAdvanceEvery) {
    ts.retire_since_scan = 0;
    try_advance();
  }
}

std::uint64_t EpochDomain::pinned_epoch() {
  ThreadState& ts = thread_state();
  assert(ts.pin_depth > 0 && "pinned_epoch() requires an active Guard");
  return ts.state->load(std::memory_order_relaxed) >> kEpochShift;
}

EpochDomain::ThreadState& EpochDomain::thread_state() {
  struct Entry {
    std::uint64_t domain_id;
    ThreadState* ts;
  };
  struct Cache {
    std::vector<Entry> entries;
    ~Cache() {
      for (const Entry& e : entries) {
        EpochDomain* domain = nullptr;
        {
          std::lock_guard lock(id_map().mu);
          auto it = id_map().map.find(e.domain_id);
          if (it != id_map().map.end()) domain = it->second;
        }
        if (domain != nullptr) domain->release_slot(e.ts);
      }
    }
  };
  thread_local Cache cache;

  for (const Entry& e : cache.entries)
    if (e.domain_id == domain_id_) return *e.ts;
  ThreadState* ts = acquire_slot();
  cache.entries.push_back(Entry{domain_id_, ts});
  return *ts;
}

EpochDomain::ThreadState* EpochDomain::acquire_slot() {
  std::lock_guard lock(registry_mu_);
  for (ThreadState* ts : slots_) {
    if (!ts->in_use) {
      ts->in_use = true;
      ts->owner_id = std::this_thread::get_id();
      ts->resilient.store(armed_, std::memory_order_relaxed);
      return ts;
    }
  }
  auto* ts = new ThreadState;
  ts->in_use = true;
  ts->owner_id = std::this_thread::get_id();
  ts->resilient.store(armed_, std::memory_order_relaxed);
  slots_.push_back(ts);
  return ts;
}

void EpochDomain::release_slot(ThreadState* ts) {
  std::lock_guard lock(registry_mu_);
  assert(ts->pin_depth == 0 && "thread exited while pinned");
  for (int b = 0; b < kBuckets; ++b) {
    if (ts->limbo[b] == nullptr) continue;
    RetiredNode* tail = ts->limbo[b];
    while (tail->next != nullptr) tail = tail->next;
    tail->next = orphans_[b];
    orphans_[b] = ts->limbo[b];
    orphan_epochs_[b] = std::max(orphan_epochs_[b], ts->limbo_epoch[b]);
    ts->limbo[b] = nullptr;
    ts->limbo_epoch[b] = 0;
  }
  ts->retire_since_scan = 0;
  ts->owner_id = std::thread::id{};
  if (blamed_slot_ == ts) {
    blamed_slot_ = nullptr;  // the suspect exited; drop the stale blame
    blame_streak_ = 0;
  }
  ts->state->store(0, std::memory_order_seq_cst);
  ts->in_use = false;
}

void EpochDomain::set_resilience(const ResilienceOptions& opts) {
  std::lock_guard lock(registry_mu_);
  resilience_ = opts;
  blamed_slot_ = nullptr;
  blame_streak_ = 0;
  if (opts.neutralize && !armed_) {
    armed_ = true;  // sticky: see header
    for (ThreadState* ts : slots_)
      ts->resilient.store(true, std::memory_order_seq_cst);
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
  RetiredNode* q = nullptr;
  {
    std::lock_guard lock(registry_mu_);
    ThreadState* straggler = nullptr;
    std::uint64_t straggler_word = 0;
    for (ThreadState* ts : slots_) {
      const std::uint64_t w = ts->state->load(std::memory_order_seq_cst);
      if ((w & kActiveBit) == 0) continue;
      if ((w & kEjectedBit) != 0) continue;  // neutralized: not blocking
      if ((w >> kEpochShift) != e) {
        straggler = ts;
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
          if (orphans_[b] != nullptr && orphan_epochs_[b] + 2 <= e + 1) {
            dispose_list(orphans_[b], /*locked=*/true);
            orphans_[b] = nullptr;
          }
        }
        q = detach_quarantine_locked();
      }
    }
  }
  if (ejected) LF_CHAOS_POINT(kEpochEject);  // after the lock: see chaos.h
  free_quarantine(q);
  return advanced;
}

void EpochDomain::settle_ejection(ThreadState* ts, bool clear_state) {
  LF_CHAOS_POINT(kEpochEjectAck);  // entry, before the registry lock
  RetiredNode* q = nullptr;
  {
    std::lock_guard lock(registry_mu_);
    if (clear_state) {
      const std::uint64_t w = ts->state->load(std::memory_order_seq_cst);
      if ((w & kEjectedBit) == 0) return;  // settled by adopt_stalled
      ts->state->store(0, std::memory_order_seq_cst);
    }
    ejected_count_.fetch_sub(1, std::memory_order_seq_cst);
    ts->heartbeat.fetch_add(1, std::memory_order_relaxed);
    q = detach_quarantine_locked();
  }
  stats::tls().epoch_eject_ack.inc();
  free_quarantine(q);  // outside the lock: deleters may re-enter the domain
}

bool EpochDomain::adopt_stalled(std::thread::id tid) {
  RetiredNode* q = nullptr;
  bool found = false;
  {
    std::lock_guard lock(registry_mu_);
    for (ThreadState* ts : slots_) {
      if (!ts->in_use || ts->owner_id != tid) continue;
      found = true;
      std::uint64_t adopted = 0;
      for (int b = 0; b < kBuckets; ++b) {
        if (ts->limbo[b] == nullptr) continue;
        RetiredNode* tail = ts->limbo[b];
        ++adopted;
        while (tail->next != nullptr) {
          tail = tail->next;
          ++adopted;
        }
        tail->next = orphans_[b];
        orphans_[b] = ts->limbo[b];
        orphan_epochs_[b] = std::max(orphan_epochs_[b], ts->limbo_epoch[b]);
        ts->limbo[b] = nullptr;
        ts->limbo_epoch[b] = 0;
      }
      ts->retire_since_scan = 0;
      if (adopted > 0) stats::tls().orphan_adopt.inc(adopted);
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
      if (blamed_slot_ == ts) {
        blamed_slot_ = nullptr;
        blame_streak_ = 0;
      }
      ts->heartbeat.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    if (found) q = detach_quarantine_locked();
  }
  free_quarantine(q);
  return found;
}

bool EpochDomain::remediate_now() {
  std::uint32_t rounds;
  {
    std::lock_guard lock(registry_mu_);
    // Enough failed advances to push the blame streak over the threshold,
    // plus a few successful ones to move every residue class.
    rounds = resilience_.blame_threshold + kBuckets + 2;
  }
  const std::uint64_t e0 = epoch();
  for (std::uint32_t i = 0; i < rounds; ++i) try_advance();
  RetiredNode* q = nullptr;
  {
    std::lock_guard lock(registry_mu_);
    q = detach_quarantine_locked();
  }
  const bool freed = q != nullptr;
  free_quarantine(q);
  return freed || epoch() != e0;
}

std::string EpochDomain::stall_report() {
  std::ostringstream os;
  const std::uint64_t e = epoch();
  std::lock_guard lock(registry_mu_);
  os << "epoch domain: epoch=" << e << " retired_backlog=" << retired_count()
     << " quarantine_depth=" << quarantine_depth()
     << (quarantine_depth() > resilience_.quarantine_soft_cap
             ? " (OVER soft cap)"
             : "")
     << " ejected=" << ejected_count()
     << " neutralize=" << (resilience_.neutralize ? "on" : "off") << "\n";
  int i = 0;
  for (ThreadState* ts : slots_) {
    const std::uint64_t w = ts->state->load(std::memory_order_seq_cst);
    os << "  slot " << i++ << (ts->in_use ? "" : " (idle)")
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

void EpochDomain::reclaim_bucket_locally(ThreadState& ts,
                                         std::uint64_t observed_epoch) {
  for (int b = 0; b < kBuckets; ++b) {
    if (ts.limbo[b] != nullptr && ts.limbo_epoch[b] + 2 <= observed_epoch) {
      dispose_list(ts.limbo[b], /*locked=*/false);
      ts.limbo[b] = nullptr;
    }
  }
}

void EpochDomain::dispose_list(RetiredNode* head, bool locked) {
  if (head == nullptr) return;
  // seq_cst pairs with the count-increment-before-bit-CAS order in
  // note_straggler_locked: a free enabled by an ejection-driven advance
  // cannot miss the outstanding ejection (DESIGN.md §11).
  if (ejected_count_.load(std::memory_order_seq_cst) == 0) {
    free_list(head, *retired_live_);
    return;
  }
  // An ejected reader may resume and keep dereferencing anything it could
  // reach before it stalled: run no deleters, quarantine the whole list.
  std::uint64_t n = 1;
  RetiredNode* tail = head;
  while (tail->next != nullptr) {
    tail = tail->next;
    ++n;
  }
  {
    std::unique_lock<std::mutex> lock(registry_mu_, std::defer_lock);
    if (!locked) lock.lock();
    tail->next = quarantine_;
    quarantine_ = head;
  }
  quarantine_depth_.fetch_add(n, std::memory_order_relaxed);
  stats::tls().quarantine_in.inc(n);
}

EpochDomain::RetiredNode* EpochDomain::detach_quarantine_locked() {
  if (quarantine_ == nullptr) return nullptr;
  if (ejected_count_.load(std::memory_order_seq_cst) != 0) return nullptr;
  RetiredNode* head = quarantine_;
  quarantine_ = nullptr;
  return head;
}

void EpochDomain::free_quarantine(RetiredNode* head) {
  if (head == nullptr) return;
  std::uint64_t n = 0;
  for (RetiredNode* p = head; p != nullptr; p = p->next) ++n;
  quarantine_depth_.fetch_sub(n, std::memory_order_relaxed);
  stats::tls().quarantine_free.inc(n);
  free_list(head, *retired_live_);
}

void EpochDomain::free_list(RetiredNode* head,
                            std::atomic<std::uint64_t>& live) {
  std::uint64_t n = 0;
  while (head != nullptr) {
    RetiredNode* next = head->next;
    head->deleter(head->object);
    delete head;
    head = next;
    ++n;
  }
  if (n > 0) {
    live.fetch_sub(n, std::memory_order_relaxed);
    stats::tls().node_freed.inc(n);
  }
}

void EpochDomain::drain() {
  ThreadState& ts = thread_state();
  assert(ts.pin_depth == 0 && "drain() called under a guard");
  // Each successful advance retires one more residue class; three passes
  // drain everything the calling thread and exited threads have retired,
  // provided no other thread is pinned.
  for (int i = 0; i < kBuckets; ++i) {
    try_advance();
    reclaim_bucket_locally(ts,
                           global_epoch_->load(std::memory_order_seq_cst));
  }
  RetiredNode* q = nullptr;
  {
    std::lock_guard lock(registry_mu_);
    q = detach_quarantine_locked();
  }
  free_quarantine(q);
}

}  // namespace lf::reclaim
