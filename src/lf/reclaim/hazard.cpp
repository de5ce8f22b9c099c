#include "lf/reclaim/hazard.h"

#include <algorithm>
#include <mutex>
#include <vector>

#include "lf/chaos/chaos.h"

namespace lf::reclaim {

HazardDomain& HazardDomain::global() {
  static HazardDomain* d = new HazardDomain;
  return *d;
}

HazardDomain::ThreadSlots& HazardDomain::slots() { return records_.local(); }

void HazardDomain::on_thread_exit(ThreadSlots& rec) {
  rec.clear_all();
  orphans_.splice(rec.retired_);
}

bool HazardDomain::adopt_stalled(std::thread::id tid) {
  // Under the registry lock, like every other move of a retire list. The
  // caller's park/death contract (see hazard.h) excludes the owner itself.
  std::lock_guard lock(records_.mutex());
  ThreadSlots* rec = records_.find_owner(tid);
  if (rec == nullptr) return false;
  // The slots stay published: a resumable victim may still dereference
  // them (bounded retention).
  stats::tls().orphan_adopt.inc(rec->retired_.size());
  orphans_.splice(rec->retired_);
  return true;
}

void HazardDomain::retire_erased(void* object, void (*deleter)(void*)) {
  LF_CHAOS_POINT(kHazardRetire);
  ThreadSlots& rec = slots();
  rec.retired_.push(object, deleter);
  retired_live_->fetch_add(1, std::memory_order_relaxed);
  stats::tls().node_retired.inc();
  // Michael's recommendation: scan when the retire list exceeds ~2x the
  // total number of hazard slots, giving amortized O(1) scans with bounded
  // unreclaimed garbage.
  bool should_scan;
  {
    std::lock_guard lock(records_.mutex());
    const std::uint64_t threshold =
        2 * kSlotsPerThread *
            std::max<std::size_t>(records_.slots().size(), 1) +
        16;
    should_scan = rec.retired_.size() + orphans_.size() >= threshold;
  }
  if (should_scan) scan_record(rec);
}

void HazardDomain::scan() { scan_record(slots()); }

void HazardDomain::scan_record(ThreadSlots& rec) {
  LF_CHAOS_POINT(kHazardScan);  // entry, before any registry lock
  // Under the registry lock: adopt orphaned retire lists so garbage from
  // exited threads is not stranded, and snapshot every published hazard
  // pointer.
  std::vector<void*> protected_ptrs;
  {
    std::lock_guard lock(records_.mutex());
    rec.retired_.splice(orphans_);
    protected_ptrs.reserve(records_.slots().size() * kSlotsPerThread);
    for (const auto& slot : records_.slots()) {
      for (const auto& hp : slot.record->hp_) {
        void* p = hp.value.load(std::memory_order_seq_cst);
        if (p != nullptr) protected_ptrs.push_back(p);
      }
    }
  }
  std::sort(protected_ptrs.begin(), protected_ptrs.end());

  // Free every retired node that is not protected.
  const std::uint64_t freed = rec.retired_.free_unless([&](void* p) {
    return std::binary_search(protected_ptrs.begin(), protected_ptrs.end(), p);
  });
  retired_live_->fetch_sub(freed, std::memory_order_relaxed);
}

}  // namespace lf::reclaim
