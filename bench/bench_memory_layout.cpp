// E11 — the cache-conscious memory layer: FRSkipList's flat pooled towers
// (each tower one contiguous pool block) under build, search and churn.
//
// EXPERIMENTS.md E11 records the 2x2 ablation {chained, flat} x {heap,
// pool} that chose this layout. The bench reports the layout's two
// allocator claims — one block per insert, and almost no global-allocator
// round-trips — and emits essential steps/op per phase, which CI's trend
// gate (tools/bench_trend.py) compares run over run. On a single-core host
// the multi-thread churn numbers measure lost-interleaving overhead rather
// than parallel speedup.
//
// Output: the usual tables, plus machine-readable BENCH_memory_layout.json.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "lf/core/fr_skiplist.h"
#include "lf/harness/bench_env.h"
#include "lf/harness/json_writer.h"
#include "lf/harness/table.h"
#include "lf/instrument/counters.h"
#include "lf/mem/pool.h"
#include "lf/reclaim/epoch.h"
#include "lf/util/random.h"
#include "lf/util/timer.h"
#include "lf/workload/runner.h"

namespace {

using lf::harness::Table;
using lf::mem::PoolTotals;
using lf::mem::pool_totals;

using SkipList = lf::FRSkipList<long, long>;

// JSON row identity, unchanged since the 2x2 ablation so the trend gate
// keeps comparing this row across history.
constexpr const char* kLayout = "flat/pool";

// Allocator traffic attributable to one measured region. "blocks" counts
// blocks handed to the structure;
// "global hits" counts round-trips to the global allocator (the expensive,
// lock-taking path the pool amortizes away).
struct AllocDelta {
  std::uint64_t blocks = 0;
  std::uint64_t global_hits = 0;
};

AllocDelta alloc_delta(const PoolTotals& before) {
  const PoolTotals d = pool_totals() - before;
  AllocDelta out;
  out.blocks = d.fresh_blocks + d.recycled_blocks + d.oversize;
  out.global_hits = d.global_hits();
  return out;
}

struct PhaseResult {
  double seconds = 0;
  double mops = 0;
  double steps_per_op = 0;
  double blocks_per_op = 0;
  double hits_per_op = 0;
};

// Phase 1: build a set of kBuildKeys distinct keys, single thread, shuffled
// order. blocks/op here is the allocations-per-insert claim: 1 block per
// tower, whatever its height.
constexpr std::size_t kBuildKeys = 200'000;

std::vector<long> shuffled_keys(std::size_t n, std::uint64_t seed) {
  std::vector<long> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = static_cast<long>(i);
  lf::Xoshiro256 rng(seed);
  for (std::size_t i = n; i > 1; --i)
    std::swap(keys[i - 1], keys[rng.below(i)]);
  return keys;
}

template <typename Set>
PhaseResult build_phase(Set& set, const std::vector<long>& keys) {
  const PoolTotals mem_before = pool_totals();
  const auto steps_before = lf::stats::aggregate();
  lf::Stopwatch clock;
  for (long k : keys) set.insert(k, k);
  PhaseResult r;
  r.seconds = clock.elapsed_seconds();
  const auto steps = lf::stats::aggregate() - steps_before;
  const auto mem = alloc_delta(mem_before);
  const auto n = static_cast<double>(keys.size());
  r.mops = n / r.seconds / 1e6;
  r.steps_per_op = static_cast<double>(steps.essential_steps()) / n;
  r.blocks_per_op = static_cast<double>(mem.blocks) / n;
  r.hits_per_op = static_cast<double>(mem.global_hits) / n;
  return r;
}

// Phase 2: single-thread random searches over the built set — the
// pointer-chasing workload where node placement shows up as wall-clock.
template <typename Set>
PhaseResult search_phase(const Set& set, std::uint64_t seed) {
  constexpr std::size_t kSearches = 400'000;
  lf::Xoshiro256 rng(seed);
  const auto steps_before = lf::stats::aggregate();
  lf::Stopwatch clock;
  for (std::size_t i = 0; i < kSearches; ++i)
    set.contains(static_cast<long>(rng.below(kBuildKeys)));
  PhaseResult r;
  r.seconds = clock.elapsed_seconds();
  const auto steps = lf::stats::aggregate() - steps_before;
  r.mops = static_cast<double>(kSearches) / r.seconds / 1e6;
  r.steps_per_op =
      static_cast<double>(steps.essential_steps()) / kSearches;
  return r;
}

// Phase 3: multi-thread churn on a small key range — every erase retires a
// tower whose block the pool recycles into a subsequent insert, so this is
// where pooled allocation pays (or would break, if reuse were not
// epoch-safe).
template <typename Set>
PhaseResult churn_phase(Set& set) {
  lf::workload::RunConfig cfg;
  cfg.threads = 4;
  cfg.ops_per_thread = 150'000;
  cfg.key_space = 2048;
  cfg.prefill = 1024;
  cfg.mix = {45, 45};
  cfg.seed = 17;
  cfg.measure_contention = false;
  lf::workload::prefill(set, cfg);
  const PoolTotals mem_before = pool_totals();
  const auto res = lf::workload::run_workload(set, cfg);
  const auto mem = alloc_delta(mem_before);
  PhaseResult r;
  r.seconds = res.seconds;
  r.mops = res.mops_per_sec();
  r.steps_per_op = res.steps_per_op();
  r.blocks_per_op =
      static_cast<double>(mem.blocks) / static_cast<double>(res.total_ops);
  r.hits_per_op = static_cast<double>(mem.global_hits) /
                  static_cast<double>(res.total_ops);
  return r;
}

struct ConfigResult {
  PhaseResult build, search, churn;
};

ConfigResult run_config() {
  ConfigResult out;
  const auto keys = shuffled_keys(kBuildKeys, 0x5eed);
  {
    SkipList set;
    out.build = build_phase(set, keys);
    out.search = search_phase(set, 0xfeed);
  }
  {
    SkipList set;
    out.churn = churn_phase(set);
  }
  lf::reclaim::EpochDomain::global().drain();
  return out;
}

void emit_json(const ConfigResult& c) {
  lf::harness::JsonWriter j;
  j.begin_object();
  j.field("experiment", "E11 memory layout");
  j.field("build_keys", static_cast<std::uint64_t>(kBuildKeys));
  j.key("configs").begin_array();
  {
    j.begin_object();
    j.field("layout", kLayout);
    const auto phase = [&](const char* name, const PhaseResult& p,
                           bool alloc_cols) {
      j.key(name).begin_object();
      j.field("seconds", p.seconds);
      j.field("mops_per_sec", p.mops);
      j.field("essential_steps_per_op", p.steps_per_op);
      if (alloc_cols) {
        j.field("blocks_per_op", p.blocks_per_op);
        j.field("global_allocator_hits_per_op", p.hits_per_op);
      }
      j.end_object();
    };
    phase("build", c.build, true);
    phase("search", c.search, false);
    phase("churn", c.churn, true);
    j.end_object();
  }
  j.end_array();
  j.end_object();
  std::ofstream f("BENCH_memory_layout.json");
  f << j.str() << "\n";
  std::cout << "wrote BENCH_memory_layout.json\n";
}

}  // namespace

int main() {
  lf::harness::print_environment(
      "E11 (memory layer)",
      "flat pooled towers cost one block per insert and almost no global "
      "allocator round-trips; essential steps/op must not move");

  const ConfigResult c = run_config();

  lf::harness::print_section(
      "build: 200k distinct inserts, 1 thread | search: 400k random "
      "contains, 1 thread | churn: 4 threads, 45i/45d/10s, 2048 keys");
  Table table({"phase", "Mops/s", "steps/op", "blocks/op", "global hits/op"});
  const auto row = [&](const char* name, const PhaseResult& p,
                       bool alloc_cols) {
    table.add_row({name, Table::num(p.mops, 3), Table::num(p.steps_per_op, 2),
                   alloc_cols ? Table::num(p.blocks_per_op, 3) : "-",
                   alloc_cols ? Table::num(p.hits_per_op, 5) : "-"});
  };
  row("build", c.build, true);
  row("search", c.search, false);
  row("churn", c.churn, true);
  table.print();

  std::cout << "Expected shape: build blocks/op = 1.000 (one block per\n"
               "tower, whatever its height); global hits/op ~0 (one per\n"
               "256 KiB segment carved; the pool goes to the global\n"
               "allocator once per 2 MiB chunk of eight segments).\n\n";

  emit_json(c);
  return 0;
}
