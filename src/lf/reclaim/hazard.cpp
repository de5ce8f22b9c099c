#include "lf/reclaim/hazard.h"

#include <algorithm>
#include <unordered_map>

#include "lf/chaos/chaos.h"

namespace lf::reclaim {
namespace {

struct HPDomainIdMap {
  std::mutex mu;
  std::unordered_map<std::uint64_t, HazardDomain*> map;
  std::atomic<std::uint64_t> next_id{1};
};

HPDomainIdMap& hp_id_map() {
  static HPDomainIdMap* m = new HPDomainIdMap;  // immortal, see epoch.cpp
  return *m;
}

}  // namespace

HazardDomain::HazardDomain()
    : domain_id_(hp_id_map().next_id.fetch_add(1)) {
  retired_live_->store(0, std::memory_order_relaxed);
  std::lock_guard lock(hp_id_map().mu);
  hp_id_map().map.emplace(domain_id_, this);
}

HazardDomain::~HazardDomain() {
  {
    std::lock_guard lock(hp_id_map().mu);
    hp_id_map().map.erase(domain_id_);
  }
  // Precondition: no thread still operates on structures using this domain,
  // so nothing is protected and everything retired can be freed.
  std::lock_guard lock(registry_mu_);
  std::uint64_t freed = 0;
  auto free_chain = [&](RetiredNode* head) {
    while (head != nullptr) {
      RetiredNode* next = head->next;
      head->deleter(head->object);
      delete head;
      head = next;
      ++freed;
    }
  };
  for (ThreadSlots* rec : records_) {
    free_chain(rec->retired_);
    rec->retired_ = nullptr;
    delete rec;
  }
  records_.clear();
  free_chain(orphans_);
  orphans_ = nullptr;
  if (freed > 0) stats::tls().node_freed.inc(freed);
}

HazardDomain& HazardDomain::global() {
  static HazardDomain* d = new HazardDomain;
  return *d;
}

HazardDomain::ThreadSlots& HazardDomain::slots() {
  struct Entry {
    std::uint64_t domain_id;
    ThreadSlots* rec;
  };
  struct Cache {
    std::vector<Entry> entries;
    ~Cache() {
      for (const Entry& e : entries) {
        HazardDomain* domain = nullptr;
        {
          std::lock_guard lock(hp_id_map().mu);
          auto it = hp_id_map().map.find(e.domain_id);
          if (it != hp_id_map().map.end()) domain = it->second;
        }
        if (domain != nullptr) domain->release_record(e.rec);
      }
    }
  };
  thread_local Cache cache;

  for (const Entry& e : cache.entries)
    if (e.domain_id == domain_id_) return *e.rec;
  ThreadSlots* rec = acquire_record();
  cache.entries.push_back(Entry{domain_id_, rec});
  return *rec;
}

HazardDomain::ThreadSlots* HazardDomain::acquire_record() {
  std::lock_guard lock(registry_mu_);
  for (ThreadSlots* rec : records_) {
    if (!rec->in_use_) {
      rec->in_use_ = true;
      rec->owner_id_ = std::this_thread::get_id();
      return rec;
    }
  }
  auto* rec = new ThreadSlots;
  rec->in_use_ = true;
  rec->owner_id_ = std::this_thread::get_id();
  records_.push_back(rec);
  return rec;
}

void HazardDomain::release_record(ThreadSlots* rec) {
  rec->clear_all();
  // Stale finger metadata must not outlive the slots: a later adopter of
  // this record republishes before any scan could walk from it (the slot
  // itself is already null, which is what scanners gate on).
  rec->finger_walker_.store(nullptr, std::memory_order_release);
  rec->finger_tag_.store(0, std::memory_order_release);
  std::lock_guard lock(registry_mu_);
  if (rec->retired_ != nullptr) {
    RetiredNode* tail = rec->retired_;
    while (tail->next != nullptr) tail = tail->next;
    tail->next = orphans_;
    orphans_ = rec->retired_;
    orphan_count_ += rec->retired_count_;
    rec->retired_ = nullptr;
    rec->retired_count_ = 0;
  }
  rec->owner_id_ = std::thread::id{};
  rec->in_use_ = false;
}

bool HazardDomain::adopt_stalled(std::thread::id tid) {
  // Entirely under the registry lock: mutually exclusive with scan stage 2
  // and invalidate_fingers, so no scanner can be mid-walk from the fingers
  // we null. The caller's park/death contract (see hazard.h) excludes the
  // owner itself.
  std::lock_guard lock(registry_mu_);
  for (ThreadSlots* rec : records_) {
    if (!rec->in_use_ || rec->owner_id_ != tid) continue;
    // Seqlock write side, as in publish_finger: a torn observation makes a
    // scanner skip this record's chain walk, which is exactly right while
    // its fingers are being retired.
    rec->finger_seq_.fetch_add(1, std::memory_order_relaxed);
    for (int i = 0; i < kFingerEntries; ++i)
      rec->hp_[kFingerSlot + i].value.store(nullptr,
                                            std::memory_order_seq_cst);
    rec->hp_[kFingerHopSlot].value.store(nullptr, std::memory_order_seq_cst);
    rec->finger_walker_.store(nullptr, std::memory_order_release);
    rec->finger_tag_.store(0, std::memory_order_release);
    rec->finger_seq_.fetch_add(1, std::memory_order_release);
    // The Michael-list slots [0, kMichaelListSlots) stay published: a
    // resumable victim may still dereference them (bounded retention).
    if (rec->retired_ != nullptr) {
      RetiredNode* tail = rec->retired_;
      while (tail->next != nullptr) tail = tail->next;
      tail->next = orphans_;
      orphans_ = rec->retired_;
      orphan_count_ += rec->retired_count_;
      stats::tls().orphan_adopt.inc(rec->retired_count_);
      rec->retired_ = nullptr;
      rec->retired_count_ = 0;
    }
    return true;
  }
  return false;
}

// ---- Retained-finger slot protocol ----------------------------------------

void HazardDomain::publish_finger(void* const* nodes, int n,
                                  ChainWalker walker, std::uint64_t tag) {
  ThreadSlots& rec = slots();
  // Seqlock write side: odd seq marks the (slots, walker, tag) tuple as
  // mid-rewrite so a concurrent scanner never pairs a pointer from one
  // publish with the walker of another (type confusion on the walk).
  rec.finger_seq_.fetch_add(1, std::memory_order_relaxed);
  for (int i = 0; i < kFingerEntries; ++i)
    rec.hp_[kFingerSlot + i].value.store(i < n ? nodes[i] : nullptr,
                                         std::memory_order_seq_cst);
  rec.finger_walker_.store(walker, std::memory_order_release);
  rec.finger_tag_.store(tag, std::memory_order_release);
  // A finished recovery walk's hop publication is dead once the new fingers
  // are in place; dropping it here keeps the hop slot's lifetime one
  // operation, so structure destructors only need to invalidate the finger
  // entries.
  rec.hp_[kFingerHopSlot].value.store(nullptr, std::memory_order_release);
  rec.finger_seq_.fetch_add(1, std::memory_order_release);
}

bool HazardDomain::reacquire_finger(const void* node, std::uint64_t tag,
                                    int idx) {
  LF_CHAOS_POINT(kHazardFingerReacquire);
  ThreadSlots& rec = slots();
  // Owner-only fields: both reads are of this thread's own last publish.
  // The only concurrent writer is invalidate_fingers, which can only null
  // the slot for OUR tag from OUR structure's destructor — excluded while
  // an operation is in flight (destruction requires quiescence) — or fail
  // its C&S for any other tag. Slot still == node under our tag means the
  // publication was never evicted: continuous protection since a moment the
  // node was provably alive, hence it is still dereferenceable. No branch
  // of this check dereferences `node`.
  return rec.hp_[kFingerSlot + idx].value.load(std::memory_order_seq_cst) ==
             node &&
         rec.finger_tag_.load(std::memory_order_relaxed) == tag;
}

void HazardDomain::invalidate_fingers(std::uint64_t tag) {
  // Under the registry lock, so it cannot interleave with a scan's chain
  // walk: once this returns, no scanner holds (or can re-read) a finger
  // into the dying structure, and the caller may free nodes directly.
  std::lock_guard lock(registry_mu_);
  for (ThreadSlots* rec : records_) {
    if (rec->finger_tag_.load(std::memory_order_acquire) != tag) continue;
    for (int i = 0; i < kFingerEntries; ++i) {
      void* p = rec->hp_[kFingerSlot + i].value.load(std::memory_order_seq_cst);
      if (p == nullptr) continue;
      // C&S, not a blind store: the owning thread may concurrently
      // republish the slot for a DIFFERENT (live) structure; losing that
      // race must not clobber the fresh publication. (If an
      // address-recycled node makes the C&S succeed against a fresh
      // publish, the victim thread's next reuse simply misses —
      // reacquire_finger fails closed.)
      rec->hp_[kFingerSlot + i].value.compare_exchange_strong(
          p, nullptr, std::memory_order_seq_cst);
    }
  }
}

std::uint64_t HazardDomain::scan_threshold() const noexcept {
  // Michael's recommendation: scan when the retire list exceeds ~2x the
  // total number of hazard slots, giving amortized O(1) scans with bounded
  // unreclaimed garbage.
  return 2 * kSlotsPerThread *
             std::max<std::uint64_t>(records_.size(), 1) +
         16;
}

void HazardDomain::retire_erased(void* object, void (*deleter)(void*)) {
  LF_CHAOS_POINT(kHazardRetire);
  ThreadSlots& rec = slots();
  rec.retired_ = new RetiredNode{object, deleter, rec.retired_};
  ++rec.retired_count_;
  retired_live_->fetch_add(1, std::memory_order_relaxed);
  stats::tls().node_retired.inc();
  bool should_scan;
  {
    std::lock_guard lock(registry_mu_);
    should_scan = rec.retired_count_ + orphan_count_ >= scan_threshold();
  }
  if (should_scan) scan_record(rec);
}

void HazardDomain::scan() { scan_record(slots()); }

void HazardDomain::scan_record(ThreadSlots& rec) {
  LF_CHAOS_POINT(kHazardScan);  // entry, before any registry lock
  // Stage 1: adopt orphaned retire lists so garbage from exited threads is
  // not stranded.
  {
    std::lock_guard lock(registry_mu_);
    if (orphans_ != nullptr) {
      RetiredNode* tail = orphans_;
      while (tail->next != nullptr) tail = tail->next;
      tail->next = rec.retired_;
      rec.retired_ = orphans_;
      rec.retired_count_ += orphan_count_;
      orphans_ = nullptr;
      orphan_count_ = 0;
    }
  }

  // Stage 2: snapshot every published hazard pointer, and for each record
  // with a published retained finger, walk the backlink chain of every
  // finger entry (one per cache way) and protect every node on them. The
  // chain walks cover exactly the nodes the owning thread's next
  // finger_start may dereference during a recovery walk. The walk
  // dereferences retired-but-unfreed nodes, which is safe here because
  // (a) stage 2 runs under the registry lock, so chain walks are mutually
  // exclusive with each other and with invalidate_fingers, and (b) any node
  // on a published finger's chain was spared by every earlier scan's stage
  // 2 (it was on the chain then too — backlinks are write-once and the
  // chain is fully formed before its leftmost node reaches this domain's
  // retired lists) or had not yet left the epoch stage (the epoch bridge:
  // a finger published under a pin only sees chain nodes handed to this
  // domain after that pin ended). Full argument: DESIGN.md §10.
  std::vector<void*> protected_ptrs;
  {
    std::lock_guard lock(registry_mu_);
    protected_ptrs.reserve(records_.size() * kSlotsPerThread);
    for (ThreadSlots* r : records_) {
      for (const auto& slot : r->hp_) {
        void* p = slot.value.load(std::memory_order_seq_cst);
        if (p != nullptr) protected_ptrs.push_back(p);
      }
      // Seqlock read side (write side: publish_finger). On any sign of a
      // concurrent republish, skip the walk: the old chain is abandoned
      // (the owner only walks from its CURRENT finger) and the new
      // finger's chain cannot hold anything in a retired list yet.
      const std::uint64_t seq =
          r->finger_seq_.load(std::memory_order_acquire);
      if ((seq & 1) != 0) continue;
      void* fingers[kFingerEntries];
      for (int i = 0; i < kFingerEntries; ++i)
        fingers[i] =
            r->hp_[kFingerSlot + i].value.load(std::memory_order_seq_cst);
      ChainWalker walker = r->finger_walker_.load(std::memory_order_acquire);
      if (r->finger_seq_.load(std::memory_order_acquire) != seq) continue;
      if (walker == nullptr) continue;
      // The fingers themselves are already in the snapshot; protect the
      // rest of each way's backlink chain (walker returns null at the first
      // unmarked node, and backlink chains are acyclic — strictly
      // leftward).
      for (int i = 0; i < kFingerEntries; ++i) {
        if (fingers[i] == nullptr) continue;
        for (void* p = walker(fingers[i]); p != nullptr; p = walker(p))
          protected_ptrs.push_back(p);
      }
    }
  }
  std::sort(protected_ptrs.begin(), protected_ptrs.end());

  // Stage 3: free every retired node that is not protected.
  RetiredNode* keep = nullptr;
  std::uint64_t kept = 0, freed = 0;
  RetiredNode* cur = rec.retired_;
  while (cur != nullptr) {
    RetiredNode* next = cur->next;
    const bool is_protected = std::binary_search(
        protected_ptrs.begin(), protected_ptrs.end(), cur->object);
    if (is_protected) {
      cur->next = keep;
      keep = cur;
      ++kept;
    } else {
      cur->deleter(cur->object);
      delete cur;
      ++freed;
    }
    cur = next;
  }
  rec.retired_ = keep;
  rec.retired_count_ = kept;
  if (freed > 0) {
    retired_live_->fetch_sub(freed, std::memory_order_relaxed);
    stats::tls().node_freed.inc(freed);
  }
}

}  // namespace lf::reclaim
