#include "lf/instrument/counters.h"

#include <mutex>
#include <unordered_set>

namespace lf::stats {
namespace {

// Registry of live per-thread counter blocks plus the retained totals of
// threads that have exited. Registration happens once per thread; the mutex
// is never touched on the counting fast path.
struct Registry {
  std::mutex mu;
  std::unordered_set<StepCounters*> live;
  Snapshot drained;
  Histogram drained_chain_hist;

  static Registry& instance() {
    static Registry r;  // leaked-on-exit semantics are fine and avoid
    return r;           // destruction-order hazards with late TLS teardown
  }
};

}  // namespace

StepCounters::StepCounters() {
  auto& reg = Registry::instance();
  std::lock_guard lock(reg.mu);
  reg.live.insert(this);
}

StepCounters::~StepCounters() {
  auto& reg = Registry::instance();
  std::lock_guard lock(reg.mu);
  reg.drained += read();
  reg.drained_chain_hist.merge(chain_hist);
  reg.live.erase(this);
}

Snapshot aggregate() {
  auto& reg = Registry::instance();
  std::lock_guard lock(reg.mu);
  Snapshot total = reg.drained;
  for (const StepCounters* block : reg.live) total += block->read();
  return total;
}

Histogram& chain_hist_tls() { return tls().chain_hist; }

Histogram aggregate_chain_hist() {
  auto& reg = Registry::instance();
  std::lock_guard lock(reg.mu);
  Histogram total = reg.drained_chain_hist;
  for (const StepCounters* block : reg.live) total.merge(block->chain_hist);
  return total;
}

void reset_chain_hist() {
  auto& reg = Registry::instance();
  std::lock_guard lock(reg.mu);
  reg.drained_chain_hist = Histogram{};
  for (StepCounters* block : reg.live) block->chain_hist = Histogram{};
}

}  // namespace lf::stats
