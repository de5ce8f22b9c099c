// Micro-latency benchmarks (google-benchmark): per-operation wall costs of
// the core structures at several sizes, single-threaded and with
// benchmark's thread support. Complements the experiment binaries (E1-E10),
// which report the paper's step metric; this one is for profiling-grade
// per-op timing (allocation, cache effects, guard overhead).
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <mutex>

#include "lf/baselines/harris_list.h"
#include "lf/core/fr_list.h"
#include "lf/core/fr_skiplist.h"
#include "lf/reclaim/epoch.h"
#include "lf/util/random.h"

namespace {

// One shared, prefilled instance per (type, size): reused across benchmark
// repetitions and shared by the Threads() variants. Deliberately leaked at
// process exit. With kTallTowerErased, a skip list's instance also had one
// height-23 tower inserted and erased after the fill, which took its top
// hint to 23.
template <typename Set, bool kTallTowerErased = false>
Set& shared_set(long n) {
  static std::mutex mu;
  static auto* sets = new std::map<long, std::unique_ptr<Set>>;
  std::lock_guard lock(mu);
  auto& slot = (*sets)[n];
  if (!slot) {
    slot = std::make_unique<Set>();
    for (long k = 0; k < n; ++k) slot->insert(2 * k, k);  // evens only
    if constexpr (kTallTowerErased) {
      slot->insert_with_height(-1, -1, Set::kMaxTowerHeight);
      slot->erase(-1);
    }
  }
  return *slot;
}

// Which keys a BM_Contains row looks up in [0, 2n): any, only the even
// ones the fill inserted (hits), or only the odd ones it did not (misses).
enum class Lookup { kAny, kHit, kMiss };

template <typename Set, bool kTallTowerErased = false,
          Lookup kLookup = Lookup::kAny>
void BM_Contains(benchmark::State& state) {
  Set& set = shared_set<Set, kTallTowerErased>(state.range(0));
  lf::Xoshiro256 rng(1234 + static_cast<unsigned>(state.thread_index()));
  const auto span = static_cast<std::uint64_t>(2 * state.range(0));
  for (auto _ : state) {
    auto k = static_cast<long>(rng.below(span));
    if constexpr (kLookup == Lookup::kHit) k &= ~1L;
    if constexpr (kLookup == Lookup::kMiss) k |= 1L;
    benchmark::DoNotOptimize(set.contains(k));
  }
  state.SetItemsProcessed(state.iterations());
}

// BM_Contains split by outcome. A search stops at the first level where
// it meets its key's tower (DESIGN.md §2, "Deviation: searches stop at
// their key's tower"), so only hits skip levels; a miss still descends to
// level 1.
template <typename Set>
void BM_ContainsHit(benchmark::State& state) {
  BM_Contains<Set, false, Lookup::kHit>(state);
}
template <typename Set>
void BM_ContainsMiss(benchmark::State& state) {
  BM_Contains<Set, false, Lookup::kMiss>(state);
}

template <typename Set>
void BM_InsertErasePair(benchmark::State& state) {
  Set& set = shared_set<Set>(state.range(0));
  lf::Xoshiro256 rng(99 + static_cast<unsigned>(state.thread_index()));
  const auto span = static_cast<std::uint64_t>(2 * state.range(0));
  for (auto _ : state) {
    const long k = static_cast<long>(rng.below(span)) | 1;  // odd keys only
    set.insert(k, k);
    set.erase(k);
  }
  state.SetItemsProcessed(2 * state.iterations());
}

// One pin and unpin of the global epoch domain, which nothing here arms:
// the fixed cost every operation of an epoch-reclaimed structure pays.
// Under Threads(4) each thread pins its own slot and only the global
// epoch's line is shared, read-only.
void BM_EpochPin(benchmark::State& state) {
  lf::reclaim::EpochDomain& domain = lf::reclaim::EpochDomain::global();
  for (auto _ : state) {
    lf::reclaim::EpochDomain::Guard guard(domain);
  }
  state.SetItemsProcessed(state.iterations());
}

// BM_Contains on a skip list whose tallest tower ever (23) is gone. The
// top hint falls with the tallest live tower, so this reads as
// BM_Contains<Skip> does; a hint stuck at 23 makes every descent walk the
// empty levels above the live towers (about +20 % at 2048 keys,
// EXPERIMENTS.md E11, "The top hint falls").
template <typename Set>
void BM_ContainsAfterTallTower(benchmark::State& state) {
  BM_Contains<Set, true>(state);
}

using FR = lf::FRList<long, long>;
using Skip = lf::FRSkipList<long, long>;
using Harris = lf::HarrisList<long, long>;

}  // namespace

BENCHMARK(BM_Contains<FR>)->Arg(256)->Arg(2048);
BENCHMARK(BM_Contains<Skip>)->Arg(2048)->Arg(65536);
BENCHMARK(BM_ContainsHit<Skip>)->Arg(2048);
BENCHMARK(BM_ContainsMiss<Skip>)->Arg(2048);
BENCHMARK(BM_ContainsAfterTallTower<Skip>)->Arg(2048);
BENCHMARK(BM_Contains<Harris>)->Arg(256)->Arg(2048);
BENCHMARK(BM_InsertErasePair<FR>)->Arg(256);
BENCHMARK(BM_InsertErasePair<Skip>)->Arg(2048);
BENCHMARK(BM_InsertErasePair<Harris>)->Arg(256);
BENCHMARK(BM_Contains<Skip>)->Arg(16384)->Threads(4)->UseRealTime();
BENCHMARK(BM_InsertErasePair<Skip>)->Arg(2048)->Threads(4)->UseRealTime();
BENCHMARK(BM_EpochPin);
BENCHMARK(BM_EpochPin)->Threads(4)->UseRealTime();

BENCHMARK_MAIN();
