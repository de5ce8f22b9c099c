// Per-thread segment pool with size-class freelists — the allocation
// substrate for the lock-free structures' hot paths.
//
// Why a custom pool: the FR structures allocate one block per insert (a
// node, or a whole flat tower) and free it through the reclaimer after a
// grace period. Routing that churn through the global allocator puts a
// lock-protected, cache-cold malloc/free pair on every insert/delete;
// "Skiplists with Foresight" identifies exactly this allocator traffic and
// the resulting heap-spread node placement as the dominant real-machine
// cost of skip lists. The pool removes both: allocation is a thread-local
// freelist pop (or bump-pointer carve), and freed blocks are recycled
// line-aligned and warm.
//
// Design:
//   * Size classes are multiples of one cache line (64 B) up to 4 KiB;
//     larger requests fall through to the aligned global allocator
//     (counted, so benchmarks can verify the hot path never takes it).
//   * Every block is 64-byte aligned and a whole number of lines, so no
//     two pool blocks ever share a cache line — adjacent nodes cannot
//     false-share, and the tag bits of SuccField always have room.
//   * Each thread owns a cache: one freelist per class, a bump region
//     (a 256 KiB segment) and its own counts. allocate() and deallocate()
//     write no shared cache line, counters included, unless the local
//     freelist AND bump region are empty, in which case allocate() adopts
//     a batch from the shared pool or refills its bump region.
//   * A refill takes, under the pool lock, an exited thread's spare region
//     if there is one, else carves the next segment from the shared 2 MiB
//     chunk. Chunks are 2 MiB-aligned. The chunk being carved stays on
//     4 KiB pages, so resident memory counts written pages, not 2 MiB
//     steps; when the next chunk opens, the used-up one is advised
//     MADV_HUGEPAGE and collapsed (Linux), so with transparent huge pages
//     in `madvise` or `always` mode one TLB entry covers eight of its
//     segments: at 1M keys every descent hop is a cache miss, and on 4 KiB
//     pages it was a TLB miss as well. A thread pins no more than the
//     segment it bumps through, so there is no per-thread 2 MiB floor.
//   * deallocate() pushes onto the CALLING thread's freelist: the freeing
//     thread becomes the block's new owner. Under epoch-integrated
//     reclamation frees happen on whichever thread advances the epoch, so
//     ownership migrates with the reclamation work — by then the grace
//     period has passed and the block is safe to hand out again (see
//     DESIGN.md "Memory layout & reclamation-integrated pooling" for the
//     ABA argument).
//   * Chunks are owned by an immortal process-wide registry and never
//     returned to the OS: a block freed during late static teardown (the
//     global epoch domain drains after main()) must still have a live
//     chunk under it. Exiting threads donate their freelists to the shared
//     pool and hand their unfinished bump region over whole, as a spare
//     for the next refill; a remainder too small to serve every class
//     (< kMaxPooledBytes) is chopped into blocks instead. Nothing is
//     stranded, and a run of short-lived threads reuses one region.
//
// Accounting (PoolTotals) is process-wide and monotone; benchmarks diff
// snapshots around a measured region, and the pool unit tests assert the
// grow/recycle arithmetic. Each thread cache counts its requests and its
// fresh, recycled and freed blocks in owner-written relaxed counters (a
// load and a store, no locked instruction). pool_totals() adds them to the
// shared counts under the pool lock, and an exiting thread folds its counts
// into the shared ones under the same lock, so a total never misses or
// double-counts one. The shared counters are written only on paths that
// take that lock or the global allocator anyway: thread exit, segment
// carves, oversize requests, the post-teardown fallback and stalled-thread
// adoption.
#pragma once

#include <cstddef>
#include <cstdint>
#include <thread>

#include "lf/util/align.h"

namespace lf::mem {

// One cache line per granule; classes 1..kNumClasses granules.
inline constexpr std::size_t kGranule = kCacheLineSize;
inline constexpr std::size_t kNumClasses = 64;
inline constexpr std::size_t kMaxPooledBytes = kGranule * kNumClasses;
inline constexpr std::size_t kSegmentBytes = 256 * 1024;
// Segments are carved from shared chunks of one 2 MiB huge page each
// (once used up).
inline constexpr std::size_t kChunkBytes = 2 * 1024 * 1024;
static_assert(kChunkBytes % kSegmentBytes == 0);
// Blocks adopted from the shared pool per refill (amortizes the lock).
inline constexpr std::size_t kAdoptBatch = 32;

// Process-wide, monotone counters. Exact when read at quiescence; relaxed
// (may be momentarily inconsistent) under concurrency, like all stats here.
// pool_totals() takes the pool lock to sum the live threads' counts.
struct PoolTotals {
  std::uint64_t requests = 0;        // pool_allocate calls
  std::uint64_t fresh_blocks = 0;    // served by carving a bump region
  std::uint64_t recycled_blocks = 0; // served from a freelist
  std::uint64_t freed_blocks = 0;    // pool_deallocate calls (pooled sizes)
  std::uint64_t segments = 0;        // 256 KiB segments carved from chunks
  std::uint64_t oversize = 0;        // requests > kMaxPooledBytes (global)
  std::uint64_t adopted_blocks = 0;  // blocks scavenged by pool_adopt_stalled

  // Refills that took fresh memory, plus requests the global allocator
  // served. A bound on global-allocator hits: a chunk is allocated once per
  // kChunkBytes / kSegmentBytes segments, and a spare region reused at a
  // refill counts in neither term.
  std::uint64_t global_hits() const noexcept { return segments + oversize; }

  PoolTotals operator-(const PoolTotals& rhs) const noexcept {
    PoolTotals out;
    out.requests = requests - rhs.requests;
    out.fresh_blocks = fresh_blocks - rhs.fresh_blocks;
    out.recycled_blocks = recycled_blocks - rhs.recycled_blocks;
    out.freed_blocks = freed_blocks - rhs.freed_blocks;
    out.segments = segments - rhs.segments;
    out.oversize = oversize - rhs.oversize;
    out.adopted_blocks = adopted_blocks - rhs.adopted_blocks;
    return out;
  }
};

// Raw pool interface. Returned memory is always 64-byte aligned. `bytes`
// passed to pool_deallocate must equal the original request (the usual
// sized-deallocation contract).
void* pool_allocate(std::size_t bytes);
void pool_deallocate(void* p, std::size_t bytes);
PoolTotals pool_totals();

// Stalled-thread adoption (DESIGN.md §11): donate the thread cache of a
// thread the CALLER VOUCHES cannot run concurrently with this call (parked
// with a happens-before edge, or verifiably dead) to the shared pool — its
// per-class freelists are spliced in and its unfinished bump region becomes
// a spare, exactly as clean thread exit would have done. The cache itself
// stays registered: if the thread resumes it simply finds empty freelists
// and refills through the normal shared-pool/segment path. Returns the
// number of blocks scavenged (also surfaced as PoolTotals::adopted_blocks);
// a region handed over whole counts as none, a small chopped one as its
// blocks.
std::uint64_t pool_adopt_stalled(std::thread::id tid);

}  // namespace lf::mem
