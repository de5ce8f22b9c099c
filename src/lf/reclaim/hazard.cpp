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
  // Under the registry lock, like every other move of a retire list. The
  // caller's park/death contract (see hazard.h) excludes the owner itself.
  std::lock_guard lock(registry_mu_);
  for (ThreadSlots* rec : records_) {
    if (!rec->in_use_ || rec->owner_id_ != tid) continue;
    // The slots stay published: a resumable victim may still dereference
    // them (bounded retention).
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

  // Stage 2: snapshot every published hazard pointer.
  std::vector<void*> protected_ptrs;
  {
    std::lock_guard lock(registry_mu_);
    protected_ptrs.reserve(records_.size() * kSlotsPerThread);
    for (ThreadSlots* r : records_) {
      for (const auto& slot : r->hp_) {
        void* p = slot.value.load(std::memory_order_seq_cst);
        if (p != nullptr) protected_ptrs.push_back(p);
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
