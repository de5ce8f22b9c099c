// Per-thread records and retire lists, written once for both reclamation
// domains (EpochDomain in epoch.h, HazardDomain in hazard.h).
//
// Each domain gives every thread that touches it a record: EpochDomain a
// pin slot with limbo buckets, HazardDomain hazard slots with a retire
// list. RecordRegistry finds the calling thread's record by scanning a
// short thread_local list of (domain id, record) pairs, registers the
// thread on first use (reusing an exited thread's record if one is idle),
// and at thread exit hands each record back to its domain — only while the
// domain is alive, which a process-wide map of live domain ids decides. The
// domain sees records come and go through two hooks on its Owner type, both
// called with the registry mutex held:
//
//   Record* new_record();              a fresh record (none idle to reuse)
//   void on_thread_exit(Record& rec);  the owner thread is exiting
//
// Records are freed only with their registry. RetiredList keeps its tail
// and count, so moving a whole retire list is O(1).
//
// local() first checks a one-entry thread_local cache, the (domain id,
// record) pair the thread looked up last, and scans the list only on a
// miss. Domain ids are never reused, so an entry of a destroyed domain
// never matches again, and ~ThreadRecords empties the cache before it
// hands the records back, so a record another thread may reuse is never
// returned from it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "lf/instrument/counters.h"
#include "lf/util/align.h"

namespace lf::reclaim::detail {

struct RetiredNode {
  void* object;
  void (*deleter)(void*);
  RetiredNode* next;
};

// Retired objects with their deleters. Destroying a list frees what it
// still holds.
class RetiredList {
 public:
  RetiredList() = default;
  RetiredList(const RetiredList&) = delete;
  RetiredList& operator=(const RetiredList&) = delete;
  ~RetiredList() { free_all(); }

  bool empty() const noexcept { return head_ == nullptr; }
  std::uint64_t size() const noexcept { return count_; }

  void push(void* object, void (*deleter)(void*)) {
    head_ = new RetiredNode{object, deleter, head_};
    if (tail_ == nullptr) tail_ = head_;
    ++count_;
  }

  // Moves every entry of `other` to this list and leaves `other` empty.
  void splice(RetiredList& other) noexcept;

  // Runs the deleter of every entry whose object `keep` rejects and keeps
  // the others. Returns how many ran, also counted in node_freed.
  template <typename Keep>
  std::uint64_t free_unless(Keep&& keep) {
    RetiredNode* cur = head_;
    head_ = tail_ = nullptr;
    count_ = 0;
    std::uint64_t freed = 0;
    while (cur != nullptr) {
      RetiredNode* next = cur->next;
      if (keep(cur->object)) {
        cur->next = head_;
        head_ = cur;
        if (tail_ == nullptr) tail_ = cur;
        ++count_;
      } else {
        cur->deleter(cur->object);
        delete cur;
        ++freed;
      }
      cur = next;
    }
    if (freed > 0) stats::tls().node_freed.inc(freed);
    return freed;
  }

  std::uint64_t free_all() noexcept {
    return free_unless([](void*) { return false; });
  }

  // Runs the deleters of at most `max` entries from the front. Returns how
  // many ran, also counted in node_freed.
  std::uint64_t free_front(std::uint64_t max) {
    std::uint64_t freed = 0;
    while (freed < max && head_ != nullptr) {
      RetiredNode* cur = head_;
      head_ = cur->next;
      if (head_ == nullptr) tail_ = nullptr;
      --count_;
      cur->deleter(cur->object);
      delete cur;
      ++freed;
    }
    if (freed > 0) stats::tls().node_freed.inc(freed);
    return freed;
  }

 private:
  RetiredNode* head_ = nullptr;
  RetiredNode* tail_ = nullptr;
  std::uint64_t count_ = 0;
};

// The calling thread's records, one per domain it has used.
struct ThreadRecords {
  struct Entry {
    std::uint64_t domain_id;
    void* record;
  };
  ThreadRecords() = default;
  ThreadRecords(const ThreadRecords&) = delete;
  ThreadRecords& operator=(const ThreadRecords&) = delete;
  ~ThreadRecords();  // hands each record back to its domain, if alive

  std::vector<Entry> entries;
};

inline ThreadRecords& thread_records() {
  thread_local ThreadRecords records;
  return records;
}

// The one-entry lookup cache (see the header comment). Constant-initialised
// and trivially destructible, so reading it is a plain TLS load with no
// initialisation guard. Domain id 0 is never issued.
struct LastRecord {
  std::uint64_t domain_id;
  void* record;
};
inline constinit thread_local LastRecord last_record{0, nullptr};

// The type-erased half of a registry: its id in the live-domain map.
class RegistryBase {
 public:
  RegistryBase();  // enters the live map under a fresh id
  RegistryBase(const RegistryBase&) = delete;  // the map holds its address
  RegistryBase& operator=(const RegistryBase&) = delete;

  std::uint64_t id() const noexcept { return id_; }

  // Leaves the live map once any thread exit already handing a record back
  // has finished; threads exiting later skip this domain. Idempotent.
  void close() noexcept;

 private:
  friend struct ThreadRecords;
  // Thread exit. Runs under the live-map lock, so close() waits for it.
  virtual void release(void* record) = 0;

  const std::uint64_t id_;
};

template <typename Owner, typename Record>
class RecordRegistry final : public RegistryBase {
 public:
  struct Slot {
    Record* record;
    std::thread::id owner;  // std::thread::id{} while the record is idle
    bool in_use() const noexcept { return owner != std::thread::id{}; }
  };

  explicit RecordRegistry(Owner& owner) : owner_(owner) {}
  ~RecordRegistry() {
    close();
    for (const Slot& slot : slots_) delete slot.record;
  }

  // The calling thread's record, registered on first use.
  Record& local() {
    const LastRecord& last = last_record;
    if (last.domain_id == id()) [[likely]]
      return *static_cast<Record*>(last.record);
    return local_slow();
  }

  // The registry lock: guards slots(); the domains guard their own shared
  // state with it too.
  std::mutex& mutex() noexcept { return mu_; }
  std::vector<Slot>& slots() noexcept { return slots_; }  // lock held

  // The record thread `tid` holds, or nullptr (an idle record never
  // matches). Lock held.
  Record* find_owner(std::thread::id tid) const noexcept {
    for (const Slot& slot : slots_)
      if (slot.in_use() && slot.owner == tid) return slot.record;
    return nullptr;
  }

 private:
  [[gnu::noinline]] Record& local_slow() {
    for (const ThreadRecords::Entry& e : thread_records().entries) {
      if (e.domain_id == id()) {
        last_record = {id(), e.record};
        return *static_cast<Record*>(e.record);
      }
    }
    Record& rec = acquire();
    last_record = {id(), &rec};
    return rec;
  }

  Record& acquire() {
    std::lock_guard lock(mu_);
    auto idle = std::find_if(slots_.begin(), slots_.end(),
                             [](const Slot& s) { return !s.in_use(); });
    Slot& slot = idle != slots_.end()
                     ? *idle
                     : slots_.emplace_back(Slot{owner_.new_record(), {}});
    slot.owner = std::this_thread::get_id();
    thread_records().entries.push_back({id(), slot.record});
    return *slot.record;
  }

  void release(void* record) override {
    std::lock_guard lock(mu_);
    owner_.on_thread_exit(*static_cast<Record*>(record));
    for (Slot& slot : slots_)
      if (slot.record == record) slot.owner = std::thread::id{};
  }

  Owner& owner_;
  // Off the line holding id(), which every lookup reads: lock traffic on
  // that line would cost each pin a cache miss.
  alignas(kCacheLineSize) std::mutex mu_;
  std::vector<Slot> slots_;
};

}  // namespace lf::reclaim::detail
