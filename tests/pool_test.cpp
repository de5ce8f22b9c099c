// Unit tests for the per-thread segment pool (lf/mem/pool.h): size-class
// arithmetic via the public interface, grow/recycle accounting, oversize
// fallthrough, alignment, and cross-thread donation at thread exit.
//
// PoolTotals counters are process-wide and monotone, so every test works on
// diffs of snapshots taken around its own traffic (gtest runs the tests in
// this binary sequentially on one thread unless a test spawns its own).
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "lf/mem/pool.h"

namespace {

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
