#include "lf/reclaim/registry.h"

#include <atomic>
#include <unordered_map>

namespace lf::reclaim::detail {
namespace {

// Domain id -> live registry. Thread-exit cleanup looks a record's domain
// up here so it never touches a destroyed one. Heap-allocated and never
// destroyed, so it is valid during late TLS teardown regardless of static
// destruction order.
struct LiveDomains {
  std::mutex mu;
  std::unordered_map<std::uint64_t, RegistryBase*> map;
  std::atomic<std::uint64_t> next_id{1};
};

LiveDomains& live_domains() {
  static LiveDomains* m = new LiveDomains;
  return *m;
}

}  // namespace

void RetiredList::splice(RetiredList& other) noexcept {
  if (other.head_ == nullptr) return;
  if (head_ == nullptr)
    head_ = other.head_;
  else
    tail_->next = other.head_;
  tail_ = other.tail_;
  count_ += other.count_;
  other.head_ = other.tail_ = nullptr;
  other.count_ = 0;
}

ThreadRecords::~ThreadRecords() {
  last_record = {0, nullptr};  // before any record can be reused
  LiveDomains& live = live_domains();
  std::lock_guard lock(live.mu);
  for (const Entry& e : entries) {
    auto it = live.map.find(e.domain_id);
    if (it != live.map.end()) it->second->release(e.record);
  }
}

RegistryBase::RegistryBase() : id_(live_domains().next_id.fetch_add(1)) {
  std::lock_guard lock(live_domains().mu);
  live_domains().map.emplace(id_, this);
}

void RegistryBase::close() noexcept {
  std::lock_guard lock(live_domains().mu);
  live_domains().map.erase(id_);
}

}  // namespace lf::reclaim::detail
