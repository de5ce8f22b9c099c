#include "lf/chaos/chaos.h"

#include <thread>

#if LF_CHAOS
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#endif

namespace lf::chaos {

namespace {

// SplitMix64: the seeded decision hash for scheduling and yields. Cheap,
// stateless, and the same on every platform, so a (seed, inputs) pair maps
// to the same perturbation decision everywhere.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr const char* kSiteNames[kSiteCount] = {
    "list/search_step",  "list/insert_cas",  "list/flag_cas",
    "list/mark_cas",     "list/unlink_cas",  "list/backlink_step",
    "list/help_flagged", "list/help_marked", "list/finger_validate",
    "list/finger_fallback", "list/finger_replace",
    "skip/search_step",
    "skip/insert_cas",   "skip/flag_cas",    "skip/mark_cas",
    "skip/unlink_cas",   "skip/backlink_step", "skip/help_flagged",
    "skip/help_marked",  "skip/tower_build", "skip/finger_validate",
    "skip/finger_fallback", "skip/finger_replace",
    "base/insert_cas",
    "base/mark_cas",     "base/unlink_cas",  "epoch/pin",
    "epoch/retire",      "epoch/advance",    "epoch/eject",
    "epoch/eject_ack",   "hazard/retire",
    "hazard/scan",
    "pool/alloc",        "pool/segment",
    "pool/free",         "test/op_boundary",
};

}  // namespace

const char* site_name(Site s) noexcept {
  const int i = static_cast<int>(s);
  return (i >= 0 && i < kSiteCount) ? kSiteNames[i] : "<invalid-site>";
}

#if LF_CHAOS

namespace {

// Per-thread chaos state: identity plus the progress fields the watchdog
// dumps on a stall. Registered in an immortal registry (like the step
// counters) so any thread can snapshot every other thread's progress.
struct ThreadState {
  std::atomic<int> tag{-1};
  std::atomic<int> role{static_cast<int>(Role::kDefault)};
  std::atomic<bool> parked{false};
  std::atomic<int> last_site{kSiteCount};
  std::atomic<std::uint64_t> points{0};
  std::atomic<std::uint64_t> same_site_streak{0};
  std::atomic<std::uint64_t> backlink_steps{0};
  // Scheduling-mode priority, redrawn lazily at each reshuffle epoch.
  std::uint64_t prio_epoch = ~0ULL;
  std::uint32_t priority = 0;
  std::uint64_t thread_salt = 0;
};

// Decrement-if-positive on an atomic counter; returns true when this call
// consumed a unit (took the counter from k to k-1 with k >= 1).
bool take_one(std::atomic<std::uint64_t>& c) noexcept {
  std::uint64_t v = c.load(std::memory_order_relaxed);
  while (v > 0) {
    if (c.compare_exchange_weak(v, v - 1, std::memory_order_acq_rel))
      return true;
  }
  return false;
}

// take_one that is true only for the call taking c from 1 to 0: the
// nth_hit-th visit of an armed crash.
bool take_last(std::atomic<std::uint64_t>& c) noexcept {
  std::uint64_t v = c.load(std::memory_order_relaxed);
  while (v > 0 &&
         !c.compare_exchange_weak(v, v - 1, std::memory_order_acq_rel)) {
  }
  return v == 1;
}

struct Controller {
  // -- statistics --
  std::atomic<std::uint64_t> hits[kSiteCount] = {};
  std::atomic<std::uint64_t> forced[kSiteCount] = {};
  std::atomic<std::uint64_t> alloc_failures{0};

  // -- mode 2: CAS forcing --
  std::atomic<std::uint64_t> cas_first_n[kSiteCount] = {};
  std::atomic<std::uint32_t> cas_pat_fail[kSiteCount] = {};
  std::atomic<std::uint32_t> cas_pat_per[kSiteCount] = {};
  std::atomic<std::uint64_t> cas_pat_idx[kSiteCount] = {};

  // -- mode 3: crash --
  std::atomic<int> crash_site{-1};
  std::atomic<std::uint64_t> crash_countdown{0};
  std::mutex park_mu;
  std::condition_variable park_cv;
  std::uint64_t releases = 0;    // release_parked() calls; guarded by park_mu
  std::uint64_t park_round = 0;  // `releases` when the victim last parked
  bool victim_parked = false;    // guarded by park_mu
  int victim_tag = -1;         // guarded by park_mu

  // -- mode 1: scheduling --
  std::atomic<bool> sched_on{false};
  std::atomic<std::uint64_t> sched_seed{0};
  std::atomic<unsigned> yield_permille{0};
  std::atomic<unsigned> delay_us{0};
  std::atomic<std::uint64_t> reshuffle_period{0};
  std::atomic<std::uint64_t> sched_seq{0};
  std::atomic<std::uint64_t> prio_epoch{0};

  // -- mode 4: allocation failure --
  std::atomic<std::uint64_t> alloc_fail_countdown{0};
  std::atomic<std::uint64_t> seg_fail_countdown{0};

  // -- thread registry --
  std::mutex registry_mu;
  std::vector<std::unique_ptr<ThreadState>> threads;
  std::atomic<std::uint64_t> next_thread_salt{1};
};

// Immortal, like every process-wide registry here: parked threads may
// still be waiting on park_cv during late static teardown.
Controller& ctl() {
  static Controller* c = new Controller;
  return *c;
}

ThreadState& tls() {
  thread_local ThreadState* ts = [] {
    auto owned = std::make_unique<ThreadState>();
    ThreadState* p = owned.get();
    Controller& c = ctl();
    p->thread_salt = c.next_thread_salt.fetch_add(1);
    std::lock_guard lock(c.registry_mu);
    c.threads.push_back(std::move(owned));
    return p;
  }();
  return *ts;
}

// Park the calling thread until release_parked() (or reset()).
void park(ThreadState& t) {
  Controller& c = ctl();
  std::unique_lock lock(c.park_mu);
  const std::uint64_t round = c.releases;
  t.parked.store(true, std::memory_order_release);
  c.victim_parked = true;
  c.park_round = round;
  c.victim_tag = t.tag.load(std::memory_order_relaxed);
  c.park_cv.notify_all();
  c.park_cv.wait(lock, [&] { return c.releases != round; });
  c.victim_parked = false;
  t.parked.store(false, std::memory_order_release);
  c.park_cv.notify_all();
}

void maybe_perturb_schedule(Controller& c, ThreadState& t, Site s) {
  const std::uint64_t seq =
      c.sched_seq.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t period =
      c.reshuffle_period.load(std::memory_order_relaxed);
  if (period != 0 && seq % period == 0) {
    c.prio_epoch.fetch_add(1, std::memory_order_relaxed);  // change point
  }
  const std::uint64_t epoch = c.prio_epoch.load(std::memory_order_relaxed);
  const std::uint64_t seed = c.sched_seed.load(std::memory_order_relaxed);
  if (t.prio_epoch != epoch) {
    t.prio_epoch = epoch;
    t.priority = static_cast<std::uint32_t>(
        mix64(seed ^ (t.thread_salt * 0x2545f4914f6cdd1dULL) ^ epoch) & 255);
  }
  const std::uint64_t h = mix64(
      seed ^ (seq << 8) ^ (static_cast<std::uint64_t>(s) << 56) ^
      t.thread_salt);
  if (h % 1000 >= c.yield_permille.load(std::memory_order_relaxed)) return;
  const unsigned delay = c.delay_us.load(std::memory_order_relaxed);
  if (t.priority < 128 && delay != 0) {
    // Low-priority thread at a perturbation point: hold it long enough for
    // the others to run through the window it left half-done.
    std::this_thread::sleep_for(std::chrono::microseconds(delay));
  } else {
    std::this_thread::yield();
  }
}

}  // namespace

void reset() {
  Controller& c = ctl();
  release_parked();
  c.crash_site.store(-1, std::memory_order_relaxed);
  c.crash_countdown.store(0, std::memory_order_relaxed);
  c.sched_on.store(false, std::memory_order_relaxed);
  c.alloc_fail_countdown.store(0, std::memory_order_relaxed);
  c.seg_fail_countdown.store(0, std::memory_order_relaxed);
  c.alloc_failures.store(0, std::memory_order_relaxed);
  for (int i = 0; i < kSiteCount; ++i) {
    c.hits[i].store(0, std::memory_order_relaxed);
    c.forced[i].store(0, std::memory_order_relaxed);
    c.cas_first_n[i].store(0, std::memory_order_relaxed);
    c.cas_pat_fail[i].store(0, std::memory_order_relaxed);
    c.cas_pat_per[i].store(0, std::memory_order_relaxed);
    c.cas_pat_idx[i].store(0, std::memory_order_relaxed);
  }
  std::lock_guard lock(c.registry_mu);
  for (auto& t : c.threads) {
    t->last_site.store(kSiteCount, std::memory_order_relaxed);
    t->points.store(0, std::memory_order_relaxed);
    t->same_site_streak.store(0, std::memory_order_relaxed);
    t->backlink_steps.store(0, std::memory_order_relaxed);
  }
}

void enable_scheduling(std::uint64_t seed, unsigned yield_permille,
                       unsigned delay_us, std::uint64_t reshuffle_period) {
  Controller& c = ctl();
  c.sched_seed.store(seed, std::memory_order_relaxed);
  c.yield_permille.store(yield_permille > 1000 ? 1000 : yield_permille,
                         std::memory_order_relaxed);
  c.delay_us.store(delay_us, std::memory_order_relaxed);
  c.reshuffle_period.store(reshuffle_period, std::memory_order_relaxed);
  c.sched_on.store(true, std::memory_order_release);
}

void disable_scheduling() {
  ctl().sched_on.store(false, std::memory_order_release);
}

void arm_cas_failures(Site site, std::uint64_t first_n) {
  ctl().cas_first_n[static_cast<int>(site)].store(first_n,
                                                  std::memory_order_release);
}

void arm_cas_failure_pattern(Site site, std::uint32_t fail,
                             std::uint32_t per) {
  Controller& c = ctl();
  const int i = static_cast<int>(site);
  c.cas_pat_idx[i].store(0, std::memory_order_relaxed);
  c.cas_pat_fail[i].store(fail, std::memory_order_relaxed);
  c.cas_pat_per[i].store(per, std::memory_order_release);
}

void arm_crash(Site site, std::uint64_t nth_hit) {
  Controller& c = ctl();
  c.crash_countdown.store(nth_hit == 0 ? 1 : nth_hit,
                          std::memory_order_relaxed);
  c.crash_site.store(static_cast<int>(site), std::memory_order_release);
}

bool parked() noexcept {
  Controller& c = ctl();
  std::lock_guard lock(c.park_mu);
  return c.victim_parked;
}

int parked_tag() noexcept {
  Controller& c = ctl();
  std::lock_guard lock(c.park_mu);
  return c.victim_parked ? c.victim_tag : -1;
}

bool wait_parked(std::chrono::milliseconds timeout) {
  Controller& c = ctl();
  std::unique_lock lock(c.park_mu);
  return c.park_cv.wait_for(lock, timeout, [&] { return c.victim_parked; });
}

void release_parked() {
  Controller& c = ctl();
  std::unique_lock lock(c.park_mu);
  const std::uint64_t round = ++c.releases;
  c.park_cv.notify_all();
  // Wait until the victim actually leaves the parking lot, so callers can
  // join it (or re-arm a crash) immediately afterwards — or until it has
  // parked again, at a site armed while it was parked.
  c.park_cv.wait(lock,
                 [&] { return !c.victim_parked || c.park_round == round; });
}

void arm_alloc_failure(std::uint64_t nth_request) {
  ctl().alloc_fail_countdown.store(nth_request == 0 ? 1 : nth_request,
                                   std::memory_order_release);
}

void arm_segment_failure(std::uint64_t nth_segment) {
  ctl().seg_fail_countdown.store(nth_segment == 0 ? 1 : nth_segment,
                                 std::memory_order_release);
}

void set_thread_role(Role role) noexcept {
  tls().role.store(static_cast<int>(role), std::memory_order_relaxed);
}

void set_thread_tag(int tag) noexcept {
  tls().tag.store(tag, std::memory_order_relaxed);
}

std::uint64_t site_hits(Site site) noexcept {
  return ctl().hits[static_cast<int>(site)].load(std::memory_order_relaxed);
}

std::uint64_t forced_cas_failures(Site site) noexcept {
  return ctl().forced[static_cast<int>(site)].load(
      std::memory_order_relaxed);
}

std::uint64_t alloc_failures_injected() noexcept {
  return ctl().alloc_failures.load(std::memory_order_relaxed);
}

std::vector<ThreadReport> thread_reports() {
  Controller& c = ctl();
  std::lock_guard lock(c.registry_mu);
  std::vector<ThreadReport> out;
  out.reserve(c.threads.size());
  for (const auto& t : c.threads) {
    ThreadReport r;
    r.tag = t->tag.load(std::memory_order_relaxed);
    r.role = static_cast<Role>(t->role.load(std::memory_order_relaxed));
    r.parked = t->parked.load(std::memory_order_relaxed);
    r.last_site =
        static_cast<Site>(t->last_site.load(std::memory_order_relaxed));
    r.points = t->points.load(std::memory_order_relaxed);
    r.same_site_streak =
        t->same_site_streak.load(std::memory_order_relaxed);
    r.backlink_steps = t->backlink_steps.load(std::memory_order_relaxed);
    out.push_back(r);
  }
  return out;
}

void point(Site site) {
  Controller& c = ctl();
  const int i = static_cast<int>(site);
  c.hits[i].fetch_add(1, std::memory_order_relaxed);
  ThreadState& t = tls();
  t.points.fetch_add(1, std::memory_order_relaxed);
  if (t.last_site.load(std::memory_order_relaxed) == i) {
    t.same_site_streak.fetch_add(1, std::memory_order_relaxed);
  } else {
    t.last_site.store(i, std::memory_order_relaxed);
    t.same_site_streak.store(1, std::memory_order_relaxed);
  }
  if (site == Site::kListBacklinkStep || site == Site::kSkipBacklinkStep) {
    t.backlink_steps.fetch_add(1, std::memory_order_relaxed);
  }
  if (c.crash_site.load(std::memory_order_acquire) == i &&
      t.role.load(std::memory_order_relaxed) ==
          static_cast<int>(Role::kVictim) &&
      take_last(c.crash_countdown)) {
    park(t);
  }
  if (c.sched_on.load(std::memory_order_acquire)) {
    maybe_perturb_schedule(c, t, site);
  }
}

bool force_cas_fail(Site site) {
  Controller& c = ctl();
  const int i = static_cast<int>(site);
  if (take_one(c.cas_first_n[i])) {
    c.forced[i].fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  const std::uint32_t per = c.cas_pat_per[i].load(std::memory_order_acquire);
  if (per != 0) {
    const std::uint64_t idx =
        c.cas_pat_idx[i].fetch_add(1, std::memory_order_relaxed);
    if (idx % per < c.cas_pat_fail[i].load(std::memory_order_relaxed)) {
      c.forced[i].fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

bool should_fail_alloc(bool segment) {
  Controller& c = ctl();
  auto& countdown = segment ? c.seg_fail_countdown : c.alloc_fail_countdown;
  std::uint64_t v = countdown.load(std::memory_order_acquire);
  if (v == 0) return false;
  if (v == 1 && countdown.compare_exchange_strong(
                    v, 0, std::memory_order_acq_rel)) {
    c.alloc_failures.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  // Not this request yet: count down toward the armed one.
  take_one(countdown);
  return false;
}

#endif  // LF_CHAOS

YieldInjector::YieldInjector(std::uint64_t seed) noexcept
    : state_(seed ^ 0x6a09e667f3bcc909ULL) {}

void YieldInjector::op_boundary() {
#if LF_CHAOS
  point(Site::kOpBoundary);
#endif
  state_ = mix64(state_);
  if (state_ % 3 == 0) std::this_thread::yield();
}

}  // namespace lf::chaos
