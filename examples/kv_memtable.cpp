// kv_memtable — a write-ahead-log-less "memtable" in the LSM-tree sense:
// the sorted in-memory staging structure of a key-value store, serving
// concurrent writers and readers, periodically flushed in key order.
//
// This is the canonical production use of a concurrent skip list (LevelDB
// and RocksDB both stage writes in one); the FR skip list additionally
// makes every operation lock-free, so a stalled writer can never block
// the flusher or the readers.
//
//   build/examples/kv_memtable
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "lf/core/fr_skiplist.h"
#include "lf/util/random.h"

namespace {

// Values are immutable once inserted (the paper's dictionary has no
// update-in-place); an overwriting put is erase+insert, which readers see
// as a miss-or-either — good enough for a demo, real memtables version.
//
// FRSkipList's flat pooled towers are exactly what a memtable wants — one
// arena allocation per put, towers recycled through the epoch grace period
// as overwrites churn, and contiguous towers for the flusher's range scans.
// RocksDB's memtable skip list sits on a concurrent arena for the same
// reasons.
using MemTable = lf::FRSkipList<std::string, std::string>;

std::string make_key(std::uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "user%08llu",
                static_cast<unsigned long long>(i));
  return buf;
}

}  // namespace

int main() {
  MemTable table;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> writes{0}, reads{0}, hits{0};

  // Writers: upsert random keys.
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&, t] {
      lf::Xoshiro256 rng(100 + t);
      while (!stop.load(std::memory_order_acquire)) {
        const auto key = make_key(rng.below(50'000));
        std::string value = "v";
        value += std::to_string(rng.below(1'000'000));
        table.erase(key);
        table.insert(key, std::move(value));
        writes.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Readers: point lookups.
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      lf::Xoshiro256 rng(200 + t);
      while (!stop.load(std::memory_order_acquire)) {
        if (table.find(make_key(rng.below(50'000))).has_value())
          hits.fetch_add(1, std::memory_order_relaxed);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Flusher: every "epoch", snapshot the table in key order (what an LSM
  // flush would write as an SSTable) without ever blocking the writers.
  std::uint64_t flushed_total = 0;
  for (int flush = 1; flush <= 5; ++flush) {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    std::uint64_t entries = 0;
    std::string first, last;
    table.for_each([&](const std::string& k, const std::string&) {
      if (entries == 0) first = k;
      last = k;
      ++entries;
    });
    flushed_total += entries;
    std::printf("flush #%d: %8llu entries  [%s .. %s]\n", flush,
                static_cast<unsigned long long>(entries), first.c_str(),
                last.c_str());
  }

  stop.store(true, std::memory_order_release);
  for (auto& w : writers) w.join();
  for (auto& r : readers) r.join();

  std::printf(
      "totals: %llu writes, %llu reads (%.1f%% hit rate), "
      "%llu entries snapshotted across 5 flushes\n",
      static_cast<unsigned long long>(writes.load()),
      static_cast<unsigned long long>(reads.load()),
      reads.load() ? 100.0 * static_cast<double>(hits.load()) /
                         static_cast<double>(reads.load())
                   : 0.0,
      static_cast<unsigned long long>(flushed_total));
  return 0;
}
