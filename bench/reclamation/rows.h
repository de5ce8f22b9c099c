// E9's rows (bench_reclamation.cpp). Each row is compiled in a translation
// unit of its own (the other files here), so a header edit to one
// structure cannot move GCC's inlining in another row's code.
#pragma once

#include <cstdint>

#include "lf/workload/runner.h"

namespace e9 {

constexpr int kThreads = 4;
constexpr std::uint64_t kOpsPerThread = 30'000;

// The 50i/50d churn every row runs, on `threads` threads.
inline lf::workload::RunConfig config(int threads) {
  lf::workload::RunConfig cfg;
  cfg.threads = threads;
  cfg.ops_per_thread = kOpsPerThread;
  cfg.key_space = 512;
  cfg.prefill = 256;
  cfg.mix = {50, 50};
  cfg.seed = 31;
  return cfg;
}

struct Row {
  const char* name;
  lf::workload::RunResult churn;  // on kThreads threads
  double steps_per_op_1t;         // the same churn on one thread
};

// Runs one row, each pass on a fresh structure from make(): first on one
// thread, whose tower heights (drawn by thread ordinal) and step counts
// then repeat in every run, then on kThreads threads.
template <typename Make>
Row measure(const char* name, Make make) {
  Row row{name, {}, 0.0};
  {
    auto set = make();
    const auto cfg = config(1);
    lf::workload::prefill(set, cfg);
    row.steps_per_op_1t = lf::workload::run_workload(set, cfg).steps_per_op();
  }
  auto set = make();
  const auto cfg = config(kThreads);
  lf::workload::prefill(set, cfg);
  row.churn = lf::workload::run_workload(set, cfg);
  return row;
}

Row frlist_leaky();
Row frlist_epoch();
Row frskiplist_epoch();
Row frlist_rc();
Row frskiplist_rc();
Row michael_leaky();
Row michael_epoch();
Row michael_hp();

}  // namespace e9
