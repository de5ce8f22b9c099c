// Unit tests for the per-thread segment pool (lf/mem/pool.h): size-class
// arithmetic via the public interface, grow/recycle accounting, oversize
// fallthrough, alignment, huge-page chunks, and cross-thread donation at
// thread exit.
//
// PoolTotals counters are process-wide and monotone, so every test works on
// diffs of snapshots taken around its own traffic (gtest runs the tests in
// this binary sequentially on one thread unless a test spawns its own).
#include <gtest/gtest.h>

#include <cerrno>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sys/mman.h>
#endif

#include "lf/harness/bench_env.h"
#include "lf/mem/pool.h"

namespace {

using lf::mem::kChunkBytes;
using lf::mem::kGranule;
using lf::mem::kMaxPooledBytes;
using lf::mem::kSegmentBytes;
using lf::mem::PoolTotals;
using lf::mem::pool_allocate;
using lf::mem::pool_deallocate;
using lf::mem::pool_totals;

TEST(Pool, BlocksAre64ByteAligned) {
  const std::size_t sizes[] = {1, 8, 63, 64, 65, 128, 200, 1024,
                               kMaxPooledBytes};
  std::vector<std::pair<void*, std::size_t>> blocks;
  for (std::size_t sz : sizes) {
    void* p = pool_allocate(sz);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kGranule, 0u)
        << "size " << sz;
    blocks.emplace_back(p, sz);
  }
  for (auto [p, sz] : blocks) pool_deallocate(p, sz);
}

TEST(Pool, FreshThenRecycled) {
  const PoolTotals before = pool_totals();
  void* p = pool_allocate(96);  // class: 2 granules (128 B)
  pool_deallocate(p, 96);
  // Same class: must come back off this thread's freelist.
  void* q = pool_allocate(100);
  EXPECT_EQ(q, p);
  pool_deallocate(q, 100);
  const PoolTotals d = pool_totals() - before;
  EXPECT_EQ(d.requests, 2u);
  EXPECT_EQ(d.freed_blocks, 2u);
  EXPECT_EQ(d.recycled_blocks + d.fresh_blocks, 2u);
  EXPECT_GE(d.recycled_blocks, 1u);  // the second allocate recycled
  EXPECT_EQ(d.oversize, 0u);
}

TEST(Pool, AccountingBalances) {
  const PoolTotals before = pool_totals();
  constexpr int kN = 500;
  std::vector<void*> blocks;
  blocks.reserve(kN);
  for (int i = 0; i < kN; ++i) blocks.push_back(pool_allocate(64));
  for (void* p : blocks) pool_deallocate(p, 64);
  for (int i = 0; i < kN; ++i) blocks[i] = pool_allocate(64);
  const PoolTotals mid = pool_totals() - before;
  // Every request is served fresh or recycled, never both; the second wave
  // must be recycled entirely (the freelist held kN blocks of this class).
  EXPECT_EQ(mid.requests, 2u * kN);
  EXPECT_EQ(mid.fresh_blocks + mid.recycled_blocks, 2u * kN);
  EXPECT_GE(mid.recycled_blocks, static_cast<std::uint64_t>(kN));
  for (void* p : blocks) pool_deallocate(p, 64);
}

TEST(Pool, SegmentsGrowWithDemand) {
  const PoolTotals before = pool_totals();
  // Allocate more than three segments' worth of one class without freeing
  // (the current bump region can absorb at most one segment of demand).
  const std::size_t block = 4 * kGranule;
  const std::size_t count = (3 * kSegmentBytes) / block + 8;
  std::vector<void*> blocks;
  blocks.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    blocks.push_back(pool_allocate(block));
  const PoolTotals d = pool_totals() - before;
  EXPECT_GE(d.segments, 2u);
  EXPECT_GE(d.fresh_blocks, count - d.recycled_blocks);
  for (void* p : blocks) pool_deallocate(p, block);
}

// The AnonHugePages field (kB) of the /proc/self/smaps mapping that
// contains `addr`; -1 if no mapping or field is found.
long anon_huge_kb(const void* addr) {
  const auto a = reinterpret_cast<std::uintptr_t>(addr);
  std::ifstream in("/proc/self/smaps");
  std::string line;
  bool inside = false;
  while (std::getline(in, line)) {
    std::uintptr_t lo = 0, hi = 0;
    char dash = 0;
    std::istringstream head(line);
    if (head >> std::hex >> lo >> dash >> hi && dash == '-') {
      inside = lo <= a && a < hi;
      continue;
    }
    if (inside && line.rfind("AnonHugePages:", 0) == 0)
      return std::stol(line.substr(14));
  }
  return -1;
}

TEST(Pool, SegmentsComeFromHugePageChunks) {
  // A fresh thread allocates and writes max-class blocks until it has
  // carved more segments than one chunk holds. Each carve hands out the
  // first block of a new segment, which must sit on a segment boundary of a
  // 2 MiB-aligned chunk: segments are carved from chunks, never allocated
  // on their own. The chunk of the first carve is used up by the time the
  // thread opens the next one, and the pool then makes it a huge page.
  constexpr std::size_t kBytes = kMaxPooledBytes;
  constexpr std::uint64_t kCarves = kChunkBytes / kSegmentBytes + 2;
  std::vector<void*> blocks;
  std::set<std::uintptr_t> chunks;
  std::uintptr_t first_chunk = 0;
  std::thread worker([&] {
    std::uint64_t carved = 0;
    while (carved < kCarves) {
      const std::uint64_t before = pool_totals().segments;
      void* p = pool_allocate(kBytes);
      std::memset(p, 1, kBytes);
      blocks.push_back(p);
      if (pool_totals().segments == before) continue;  // recycled or bumped
      ++carved;
      const auto a = reinterpret_cast<std::uintptr_t>(p);
      EXPECT_EQ(a % kSegmentBytes, 0u) << "segment " << carved;
      if (first_chunk == 0) first_chunk = a - a % kChunkBytes;
      chunks.insert(a - a % kChunkBytes);
    }
  });
  worker.join();
  EXPECT_GE(chunks.size(), 2u);

  const std::string mode = lf::harness::thp_mode();
  if (mode != "always" && mode != "madvise") {
    for (void* p : blocks) pool_deallocate(p, kBytes);
    GTEST_SKIP() << "transparent huge pages are '" << mode
                 << "': the pool's chunks stay on 4 KiB pages";
  }
  EXPECT_GT(anon_huge_kb(reinterpret_cast<const void*>(first_chunk)), 0)
      << "no huge page under a used-up chunk in THP mode '" << mode << "'";
  for (void* p : blocks) pool_deallocate(p, kBytes);
}

#ifdef __linux__
TEST(Pool, OpenChunkIsResidentOnlyWhereWritten) {
  // The chunk segments are being carved from stays on 4 KiB pages, so the
  // process is resident only in what it has written, in every THP mode,
  // and resident memory does not step by 2 MiB. A fresh thread takes
  // max-class blocks until one starts a new chunk and writes that block
  // only. It reads the residency before it exits: its exit writes the
  // spare-region link into the chunk.
  constexpr std::size_t kBytes = kMaxPooledBytes;
  constexpr std::size_t kPage = 4096;
  std::vector<void*> blocks;
  std::vector<unsigned char> pages(kChunkBytes / kPage);
  std::thread([&] {
    for (std::size_t i = 0; i < 2 * kChunkBytes / kBytes; ++i) {
      blocks.push_back(pool_allocate(kBytes));
      const auto a = reinterpret_cast<std::uintptr_t>(blocks.back());
      if (a % kChunkBytes != 0) continue;
      std::memset(blocks.back(), 1, kBytes);
      ASSERT_EQ(mincore(blocks.back(), kChunkBytes, pages.data()), 0) << errno;
      return;
    }
    FAIL() << "no block started a chunk";
  }).join();
  std::size_t resident = 0;
  for (unsigned char v : pages) resident += v & 1u;
  EXPECT_EQ(resident, kBytes / kPage);
  for (void* p : blocks) pool_deallocate(p, kBytes);
}
#endif

TEST(Pool, ExitedThreadRegionsAreReused) {
  // Short-lived threads each allocate one tower block (of a class no other
  // test in this binary uses) and exit. Each hands its unfinished bump
  // region over whole and the next thread's refill takes it, so the run
  // carves at most two segments. Chopping the region at exit would strand
  // it in max-class blocks and carve one segment per thread.
  constexpr std::size_t kBytes = 5 * kGranule;
  constexpr int kThreads = 200;
  const PoolTotals before = pool_totals();
  std::vector<void*> blocks(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    std::thread([&blocks, i] { blocks[i] = pool_allocate(kBytes); }).join();
  }
  const PoolTotals d = pool_totals() - before;
  EXPECT_EQ(d.requests, static_cast<std::uint64_t>(kThreads));
  EXPECT_LE(d.segments, 2u);
  for (void* p : blocks) pool_deallocate(p, kBytes);
}

TEST(Pool, OversizeFallsThroughToGlobalAllocator) {
  const PoolTotals before = pool_totals();
  void* p = pool_allocate(kMaxPooledBytes + 1);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kGranule, 0u);
  pool_deallocate(p, kMaxPooledBytes + 1);
  const PoolTotals d = pool_totals() - before;
  EXPECT_EQ(d.oversize, 1u);
  EXPECT_EQ(d.fresh_blocks, 0u);
  EXPECT_EQ(d.recycled_blocks, 0u);
  EXPECT_EQ(d.freed_blocks, 0u);  // oversize frees bypass the freelists
}

TEST(Pool, ExitingThreadDonatesItsFreelist) {
  // A worker allocates and frees blocks of a distinctive class, then exits:
  // its freelist must be donated so this thread can recycle the blocks.
  constexpr std::size_t kBytes = 7 * kGranule;
  constexpr int kN = 64;
  std::thread worker([&] {
    std::vector<void*> blocks;
    for (int i = 0; i < kN; ++i) blocks.push_back(pool_allocate(kBytes));
    for (void* p : blocks) pool_deallocate(p, kBytes);
  });
  worker.join();
  const PoolTotals before = pool_totals();
  std::vector<void*> blocks;
  for (int i = 0; i < kN; ++i) blocks.push_back(pool_allocate(kBytes));
  const PoolTotals d = pool_totals() - before;
  EXPECT_GE(d.recycled_blocks, static_cast<std::uint64_t>(kN));
  for (void* p : blocks) pool_deallocate(p, kBytes);
}

TEST(Pool, AdoptStalledReclaimsAParkedThreadsCache) {
  // A worker fills its thread cache (freelist + part of a bump region) and
  // then parks — the stand-in for a crashed thread whose cache would
  // otherwise be stranded until process exit. pool_adopt_stalled() donates
  // the cache to the shared pool so survivors recycle the blocks.
  constexpr std::size_t kBytes = 11 * lf::mem::kGranule;
  constexpr int kN = 48;
  std::mutex mu;
  std::condition_variable cv;
  bool parked = false, release = false;
  std::thread worker([&] {
    std::vector<void*> blocks;
    for (int i = 0; i < kN; ++i) blocks.push_back(pool_allocate(kBytes));
    for (void* p : blocks) pool_deallocate(p, kBytes);
    std::unique_lock lk(mu);
    parked = true;
    cv.notify_all();
    cv.wait(lk, [&] { return release; });
  });
  {
    std::unique_lock lk(mu);
    cv.wait(lk, [&] { return parked; });
  }

  const PoolTotals before = pool_totals();
  // Unknown threads adopt nothing; the parked worker's cache is found.
  EXPECT_EQ(lf::mem::pool_adopt_stalled(std::thread::id{}), 0u);
  const std::uint64_t adopted = lf::mem::pool_adopt_stalled(worker.get_id());
  EXPECT_GE(adopted, static_cast<std::uint64_t>(kN));
  EXPECT_GE((pool_totals() - before).adopted_blocks,
            static_cast<std::uint64_t>(kN));

  // The adopted blocks flow back through the shared pool to this thread.
  std::vector<void*> blocks;
  for (int i = 0; i < kN; ++i) blocks.push_back(pool_allocate(kBytes));
  const PoolTotals d = pool_totals() - before;
  EXPECT_GE(d.recycled_blocks, static_cast<std::uint64_t>(kN));
  for (void* p : blocks) pool_deallocate(p, kBytes);

  // The worker resumes with an emptied cache and exits cleanly (its cache
  // destructor finds nothing left to donate).
  {
    std::lock_guard lk(mu);
    release = true;
    cv.notify_all();
  }
  worker.join();
}

TEST(Pool, TotalsStayExactAcrossThreadExits) {
  // Each thread counts in its own cache and folds its counts into the
  // shared ones at exit. A total read while a worker is alive and one read
  // after it exits must agree: the fold neither drops nor double-counts.
  // Later workers recycle what earlier ones donated.
  constexpr std::size_t kBytes = 2 * kGranule;
  constexpr int kRounds = 4;
  constexpr std::uint64_t kN = 100;
  const PoolTotals before = pool_totals();
  for (int round = 1; round <= kRounds; ++round) {
    std::mutex mu;
    std::condition_variable cv;
    bool idle = false, release = false;
    std::thread worker([&] {
      std::vector<void*> blocks;
      for (std::uint64_t i = 0; i < kN; ++i)
        blocks.push_back(pool_allocate(kBytes));
      for (void* p : blocks) pool_deallocate(p, kBytes);
      std::unique_lock lk(mu);
      idle = true;
      cv.notify_all();
      cv.wait(lk, [&] { return release; });
    });
    {
      std::unique_lock lk(mu);
      cv.wait(lk, [&] { return idle; });
    }
    const PoolTotals alive = pool_totals() - before;
    {
      std::lock_guard lk(mu);
      release = true;
      cv.notify_all();
    }
    worker.join();
    const PoolTotals exited = pool_totals() - before;
    const std::uint64_t n = round * kN;
    for (const PoolTotals& d : {alive, exited}) {
      EXPECT_EQ(d.requests, n) << "round " << round;
      EXPECT_EQ(d.freed_blocks, n) << "round " << round;
      EXPECT_EQ(d.fresh_blocks + d.recycled_blocks, n) << "round " << round;
    }
    EXPECT_EQ(alive.fresh_blocks, exited.fresh_blocks);
    EXPECT_EQ(alive.recycled_blocks, exited.recycled_blocks);
    if (round > 1) {  // the previous worker's donation came back
      EXPECT_GE(exited.recycled_blocks, (round - 1) * kN);
    }
  }
}

TEST(Pool, CrossThreadFreeMigratesOwnership) {
  // Blocks allocated here but freed on another thread belong to that thread
  // afterwards; when it exits they reach the shared pool and flow back.
  constexpr std::size_t kBytes = 9 * kGranule;
  constexpr int kN = 32;
  std::vector<void*> blocks;
  for (int i = 0; i < kN; ++i) blocks.push_back(pool_allocate(kBytes));
  std::thread freer([&] {
    for (void* p : blocks) pool_deallocate(p, kBytes);
  });
  freer.join();
  const PoolTotals before = pool_totals();
  for (int i = 0; i < kN; ++i) blocks[i] = pool_allocate(kBytes);
  const PoolTotals d = pool_totals() - before;
  EXPECT_GE(d.recycled_blocks, static_cast<std::uint64_t>(kN));
  for (void* p : blocks) pool_deallocate(p, kBytes);
}

}  // namespace
