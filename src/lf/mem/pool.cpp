#include "lf/mem/pool.h"

#include <atomic>
#include <cassert>
#include <mutex>
#include <new>
#include <vector>

#include "lf/chaos/chaos.h"
#include "lf/instrument/counters.h"

#ifdef __linux__
#include <sys/mman.h>
#endif

namespace lf::mem {
namespace {

// Intrusive freelist link: a free block's first word points at the next
// free block of the same class. Safe because blocks are >= 64 bytes and
// dead (no reader can hold a reference once a block reaches a freelist —
// the reclaimer's grace period ended before the deleter ran).
struct FreeBlock {
  FreeBlock* next;
};

constexpr std::size_t size_class(std::size_t bytes) {
  return (bytes + kGranule - 1) / kGranule - 1;  // 0-based class index
}

constexpr std::size_t class_bytes(std::size_t cls) {
  return (cls + 1) * kGranule;
}

// Largest class that FITS in `bytes` (round down; requires bytes >= 64).
constexpr std::size_t fitting_class(std::size_t bytes) {
  const std::size_t granules = bytes / kGranule;
  return (granules > kNumClasses ? kNumClasses : granules) - 1;
}

// Chops [bump, end) into the largest classes that fit, pushing each block
// onto `lists`. Returns the number of blocks.
std::uint64_t chop(char*& bump, char* end, FreeBlock** lists) {
  std::uint64_t n = 0;
  while (static_cast<std::size_t>(end - bump) >= kGranule) {
    const std::size_t cls = fitting_class(static_cast<std::size_t>(end - bump));
    auto* b = reinterpret_cast<FreeBlock*>(bump);
    bump += class_bytes(cls);
    b->next = lists[cls];
    lists[cls] = b;
    ++n;
  }
  return n;
}

// An unfinished bump region handed over by an exited (or adopted) thread,
// linked through its own first bytes: [this, end) is free.
struct SpareRegion {
  SpareRegion* next;
  char* end;
};

// Shared side of the pool: chunk ownership, the current chunk that refills
// carve segments from, spare regions, and per-class overflow freelists that
// exiting threads donate to and running threads adopt from. Heap-allocated
// and never destroyed so blocks freed during late static teardown (e.g. the
// global epoch domain draining after main()) still have live chunks under
// them.
struct ThreadCache;

// Live thread caches by owner, for stalled-thread adoption. Guarded by
// SharedPool::mu; entries are registered on first cache touch and removed
// by the cache's own destructor on clean thread exit.
struct CacheRef {
  ThreadCache* cache;
  std::thread::id owner;
};

// The request/fresh/recycled/freed counts of a live thread cache live in the
// cache; these atomics hold what exited threads folded in and what the
// paths without a cache (teardown fallback, oversize) counted.
struct SharedPool {
  std::mutex mu;
  FreeBlock* freelists[kNumClasses] = {};
  std::vector<void*> chunks;  // owned; never returned to the OS
  char* chunk = nullptr;      // uncarved rest of the newest chunk
  char* chunk_end = nullptr;
  SpareRegion* spares = nullptr;
  std::vector<CacheRef> caches;

  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> fresh{0};
  std::atomic<std::uint64_t> recycled{0};
  std::atomic<std::uint64_t> freed{0};
  std::atomic<std::uint64_t> segment_count{0};
  std::atomic<std::uint64_t> oversize{0};
  std::atomic<std::uint64_t> adopted{0};
};

SharedPool& shared() {
  static SharedPool* s = new SharedPool;  // immortal
  return *s;
}

// Owner-written counter that pool_totals() reads under SharedPool::mu: a
// relaxed load/store pair, so no locked instruction and no data race.
struct LocalCount {
  std::atomic<std::uint64_t> n{0};
  void inc() noexcept {
    n.store(n.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  std::uint64_t get() const noexcept {
    return n.load(std::memory_order_relaxed);
  }
};

// Thread-local side: one freelist per class, the current bump region and
// the thread's counts.
struct ThreadCache {
  FreeBlock* freelists[kNumClasses] = {};
  char* bump = nullptr;
  char* bump_end = nullptr;
  LocalCount requests, fresh, recycled, freed;

  ~ThreadCache();
};

// Moves a cache's freelists and unfinished bump region to the shared pool,
// so nothing is stranded with its thread. A region that can serve every
// pooled class goes on the spare list whole; a smaller remainder is chopped
// into blocks. Caller holds s.mu. Returns the number of blocks moved.
std::uint64_t donate_cache(SharedPool& s, ThreadCache& c) {
  std::uint64_t n = 0;
  if (static_cast<std::size_t>(c.bump_end - c.bump) >= kMaxPooledBytes) {
    auto* r = reinterpret_cast<SpareRegion*>(c.bump);
    r->end = c.bump_end;
    r->next = s.spares;
    s.spares = r;
  } else {
    n += chop(c.bump, c.bump_end, s.freelists);
  }
  c.bump = nullptr;
  c.bump_end = nullptr;
  for (std::size_t cls = 0; cls < kNumClasses; ++cls) {
    if (c.freelists[cls] == nullptr) continue;
    FreeBlock* tail = c.freelists[cls];
    ++n;
    while (tail->next != nullptr) {
      tail = tail->next;
      ++n;
    }
    tail->next = s.freelists[cls];
    s.freelists[cls] = c.freelists[cls];
    c.freelists[cls] = nullptr;
  }
  return n;
}

ThreadCache::~ThreadCache() {
  SharedPool& s = shared();
  std::lock_guard lock(s.mu);
  std::erase_if(s.caches,
                [this](const CacheRef& r) { return r.cache == this; });
  // Fold the counts in under the lock that pool_totals() sums under, so
  // totals never miss or double-count them.
  s.requests.fetch_add(requests.get(), std::memory_order_relaxed);
  s.fresh.fetch_add(fresh.get(), std::memory_order_relaxed);
  s.recycled.fetch_add(recycled.get(), std::memory_order_relaxed);
  s.freed.fetch_add(freed.get(), std::memory_order_relaxed);
  donate_cache(s, *this);
}

// The cache is reached through a trivially-destructible pointer that the
// owner nulls on destruction. Main-thread thread_locals die BEFORE static
// storage, and the global epoch domain's teardown drain runs deleters that
// call pool_deallocate; after the cache is gone those frees fall back to
// the (immortal) shared pool instead of touching a dead thread_local.
thread_local ThreadCache* tls_ptr = nullptr;

struct TlsCacheOwner {
  ThreadCache cache;
  TlsCacheOwner() {
    SharedPool& s = shared();
    {
      std::lock_guard lock(s.mu);
      s.caches.push_back(CacheRef{&cache, std::this_thread::get_id()});
    }
    tls_ptr = &cache;
  }
  ~TlsCacheOwner() { tls_ptr = nullptr; }  // cache's dtor donates after this
};

ThreadCache* tls_cache() {
  thread_local TlsCacheOwner owner;  // constructed on first touch
  return tls_ptr;
}

#if defined(__linux__) && defined(MADV_HUGEPAGE)
// glibc's <sys/mman.h> may lack MADV_COLLAPSE (Linux 6.1); the value is
// the kernel's.
#ifdef MADV_COLLAPSE
constexpr int kMadvCollapse = MADV_COLLAPSE;
#else
constexpr int kMadvCollapse = 25;
#endif

// A new chunk stays on 4 KiB pages while segments are carved from it, so
// the process is resident only in the pages it has written. As one huge
// page, its first write would make all 2 MiB resident, and resident memory
// would step by whole chunks: a load ending just past a chunk boundary
// would read 2 MiB more than one ending just short of it.
void advise_open(void* chunk) {
  (void)madvise(chunk, kChunkBytes, MADV_NOHUGEPAGE);
}

// A used-up chunk becomes one huge page: the advice, then a synchronous
// collapse (Linux 6.1+). Where the collapse fails, or the kernel lacks it,
// khugepaged collapses the advised chunk later; without transparent huge
// pages the chunk stays on 4 KiB pages and works the same.
void advise_filled(void* chunk) {
  (void)madvise(chunk, kChunkBytes, MADV_HUGEPAGE);
  (void)madvise(chunk, kChunkBytes, kMadvCollapse);
}
#else
void advise_open(void*) {}
void advise_filled(void*) {}
#endif

// Gives the cache a new bump region: a spare if there is one, else the next
// segment of the current chunk, allocating a fresh chunk when that one is
// used up and turning the used-up one into a huge page. Throws
// std::bad_alloc with the cache unchanged. Out of line: it runs about once
// per 256 KiB handed out.
[[gnu::noinline]] void refill(SharedPool& s, ThreadCache& c) {
  {
    std::lock_guard lock(s.mu);
    if (SpareRegion* r = s.spares) {
      s.spares = r->next;
      c.bump = reinterpret_cast<char*>(r);
      c.bump_end = r->end;
      return;
    }
  }
  LF_CHAOS_POINT(kPoolSegment);
#if LF_CHAOS
  if (chaos::should_fail_alloc(/*segment=*/true)) throw std::bad_alloc{};
#endif
  char* filled = nullptr;
  {
    std::lock_guard lock(s.mu);
    if (static_cast<std::size_t>(s.chunk_end - s.chunk) < kSegmentBytes) {
      void* chunk = ::operator new(kChunkBytes, std::align_val_t{kChunkBytes});
      try {
        s.chunks.push_back(chunk);
      } catch (...) {
        // push_back threw (allocation of the registry's backing array): the
        // chunk is not yet owned by anyone — release it or it leaks.
        ::operator delete(chunk, std::align_val_t{kChunkBytes});
        throw;
      }
      advise_open(chunk);
      if (s.chunk_end != nullptr) filled = s.chunk_end - kChunkBytes;
      s.chunk = static_cast<char*>(chunk);
      s.chunk_end = s.chunk + kChunkBytes;
    }
    c.bump = s.chunk;
    c.bump_end = s.chunk + kSegmentBytes;
    s.chunk = c.bump_end;
    s.segment_count.fetch_add(1, std::memory_order_relaxed);
  }
  // Outside the lock: the collapse copies 2 MiB. Threads still bumping
  // through the chunk's last segments may write it meanwhile; the kernel
  // orders their faults against the collapse.
  if (filled != nullptr) advise_filled(filled);
}

// Post-teardown fallback: push straight onto the shared freelist.
void shared_deallocate(void* p, std::size_t cls) {
  SharedPool& s = shared();
  auto* b = static_cast<FreeBlock*>(p);
  std::lock_guard lock(s.mu);
  b->next = s.freelists[cls];
  s.freelists[cls] = b;
}

}  // namespace

void* pool_allocate(std::size_t bytes) {
  LF_CHAOS_POINT(kPoolAlloc);
#if LF_CHAOS
  // Injected OOM: throw before any pool state mutates, so callers observe
  // exactly what a real allocation failure at the entry would produce.
  if (chaos::should_fail_alloc(/*segment=*/false)) throw std::bad_alloc{};
#endif
  SharedPool& s = shared();
  ThreadCache* cp = tls_cache();
  if (cp != nullptr)
    cp->requests.inc();
  else
    s.requests.fetch_add(1, std::memory_order_relaxed);
  if (bytes == 0) bytes = 1;
  if (bytes > kMaxPooledBytes) {
    s.oversize.fetch_add(1, std::memory_order_relaxed);
    return ::operator new(bytes, std::align_val_t{kGranule});
  }
  const std::size_t cls = size_class(bytes);
  if (cp == nullptr) {
    // This thread's cache is already destroyed (static teardown): serve
    // from the shared pool, or fall back to the global allocator.
    {
      std::lock_guard lock(s.mu);
      if (FreeBlock* b = s.freelists[cls]) {
        s.freelists[cls] = b->next;
        s.recycled.fetch_add(1, std::memory_order_relaxed);
        return b;
      }
    }
    s.oversize.fetch_add(1, std::memory_order_relaxed);
    return ::operator new(class_bytes(cls), std::align_val_t{kGranule});
  }
  ThreadCache& c = *cp;

  if (c.freelists[cls] == nullptr) {
    // Adopt a batch from the shared pool (donations of exited threads,
    // plus anything another thread's cache overflowed — currently only
    // thread exit donates, so this lock is rare).
    std::lock_guard lock(s.mu);
    FreeBlock* head = s.freelists[cls];
    std::size_t n = 0;
    FreeBlock* tail = nullptr;
    for (FreeBlock* b = head; b != nullptr && n < kAdoptBatch; b = b->next) {
      tail = b;
      ++n;
    }
    if (tail != nullptr) {
      s.freelists[cls] = tail->next;
      tail->next = nullptr;
      c.freelists[cls] = head;
    }
  }
  if (c.freelists[cls] != nullptr) {
    FreeBlock* b = c.freelists[cls];
    c.freelists[cls] = b->next;
    c.recycled.inc();
    return b;
  }

  const std::size_t sz = class_bytes(cls);
  if (static_cast<std::size_t>(c.bump_end - c.bump) < sz) {
    // Salvage the remainder (a smaller class may still fit), then refill.
    // The old region is then on the freelists and bump/bump_end describe
    // an exhausted one, so a refill that throws strands nothing.
    chop(c.bump, c.bump_end, c.freelists);
    refill(s, c);
  }
  void* p = c.bump;
  c.bump += sz;
  c.fresh.inc();
  return p;
}

void pool_deallocate(void* p, std::size_t bytes) {
  if (p == nullptr) return;
  LF_CHAOS_POINT(kPoolFree);
  if (bytes == 0) bytes = 1;
  if (bytes > kMaxPooledBytes) {
    ::operator delete(p, std::align_val_t{kGranule});
    return;
  }
  const std::size_t cls = size_class(bytes);
  ThreadCache* cp = tls_cache();
  if (cp == nullptr) {
    shared().freed.fetch_add(1, std::memory_order_relaxed);
    shared_deallocate(p, cls);
    return;
  }
  cp->freed.inc();
  auto* b = static_cast<FreeBlock*>(p);
  b->next = cp->freelists[cls];
  cp->freelists[cls] = b;
}

std::uint64_t pool_adopt_stalled(std::thread::id tid) {
  SharedPool& s = shared();
  std::uint64_t adopted = 0;
  {
    // Under s.mu for the registry and the shared freelists; access to the
    // victim's own cache fields is covered by the caller's park/death
    // contract (pool.h), the same reasoning clean thread exit relies on.
    std::lock_guard lock(s.mu);
    for (const CacheRef& ref : s.caches) {
      if (ref.owner != tid) continue;
      adopted = donate_cache(s, *ref.cache);
      break;
    }
  }
  if (adopted > 0) {
    s.adopted.fetch_add(adopted, std::memory_order_relaxed);
    stats::tls().orphan_adopt.inc(adopted);
  }
  return adopted;
}

PoolTotals pool_totals() {
  SharedPool& s = shared();
  PoolTotals t;
  std::lock_guard lock(s.mu);
  t.requests = s.requests.load(std::memory_order_relaxed);
  t.fresh_blocks = s.fresh.load(std::memory_order_relaxed);
  t.recycled_blocks = s.recycled.load(std::memory_order_relaxed);
  t.freed_blocks = s.freed.load(std::memory_order_relaxed);
  for (const CacheRef& ref : s.caches) {
    t.requests += ref.cache->requests.get();
    t.fresh_blocks += ref.cache->fresh.get();
    t.recycled_blocks += ref.cache->recycled.get();
    t.freed_blocks += ref.cache->freed.get();
  }
  t.segments = s.segment_count.load(std::memory_order_relaxed);
  t.oversize = s.oversize.load(std::memory_order_relaxed);
  t.adopted_blocks = s.adopted.load(std::memory_order_relaxed);
  return t;
}

}  // namespace lf::mem
