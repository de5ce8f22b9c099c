// url_frontier — a crawl frontier: the priority-ordered work queue of a
// web crawler, shared by fetcher threads that pull the most urgent URL and
// scheduler threads that keep discovering new ones.
//
// The dictionary's sorted order makes extract-min trivial — the skip-list
// priority queue is exactly the application Sundell & Tsigas built their
// lock-free skip list for (the paper's reference [14]); here the FR skip
// list provides it. Keys are (priority, sequence) packed into one 64-bit
// integer so equal priorities dequeue FIFO and keys stay unique.
//
//   build/examples/url_frontier
#include <atomic>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "lf/core/fr_skiplist.h"
#include "lf/util/random.h"

namespace {

class UrlFrontier {
 public:
  // Lower priority value = more urgent. FIFO within a priority class.
  void add(int priority, std::string url) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(priority) << 40) |
        seq_.fetch_add(1, std::memory_order_relaxed);
    queue_.insert(static_cast<long>(key), std::move(url));
  }

  // Extract the most urgent URL. Lock-free: competing fetchers race on
  // erase(), and exactly one wins each key (the paper's Delete semantics).
  std::optional<std::string> take() {
    for (;;) {
      std::optional<long> head_key;
      queue_.for_each_until([&](long k, const std::string&) {
        head_key = k;
        return false;  // stop at the first (smallest) key
      });
      if (!head_key.has_value()) return std::nullopt;  // empty
      auto url = queue_.find(*head_key);
      if (queue_.erase(*head_key)) {
        if (url.has_value()) return url;
        return queue_.find(*head_key);  // value read raced; rare
      }
      // Another fetcher won this key: retry with the next head.
    }
  }

  std::size_t size() const { return queue_.size(); }

 private:
  // A thin extension of FRSkipList: early-exit iteration for head lookup.
  class Queue : public lf::FRSkipList<long, std::string> {
   public:
    template <typename Fn>
    void for_each_until(Fn&& fn) const {
      for_each_prefix(std::forward<Fn>(fn));
    }

   private:
    template <typename Fn>
    void for_each_prefix(Fn&& fn) const {
      bool keep_going = true;
      this->for_each([&](const long& k, const std::string& v) {
        if (keep_going) keep_going = fn(k, v);
      });
    }
  };

  Queue queue_;
  std::atomic<std::uint64_t> seq_{0};
};

}  // namespace

int main() {
  UrlFrontier frontier;
  std::atomic<std::uint64_t> fetched{0};
  std::atomic<std::uint64_t> discovered{0};
  // URLs added and not yet fully fetched (queued, or held by a fetcher
  // that has not added its outlinks yet). Zero means the frontier is empty
  // and no fetcher can refill it: the crawl is over.
  std::atomic<std::uint64_t> pending{0};
  std::atomic<bool> stop{false};

  // Seed crawl.
  for (int i = 0; i < 100; ++i)
    frontier.add(0, "https://seed.example/" + std::to_string(i));
  discovered += 100;
  pending += 100;

  // Fetchers: take the most urgent URL; fetching it "discovers" outlinks
  // at lower urgency (a classic BFS-ish frontier). A fetch discovers one
  // outlink on average, so the frontier often dies out before the fetch
  // cap; `pending` reaching zero then stops the fetchers.
  std::vector<std::thread> fetchers;
  for (int t = 0; t < 4; ++t) {
    fetchers.emplace_back([&, t] {
      lf::Xoshiro256 rng(42 + t);
      while (!stop.load(std::memory_order_acquire)) {
        auto url = frontier.take();
        if (!url.has_value()) {
          if (pending.load() == 0) break;
          std::this_thread::yield();
          continue;
        }
        const auto n = fetched.fetch_add(1, std::memory_order_relaxed);
        // "Parse": discover 0-2 outlinks with priority 1-3. Each is counted
        // pending before it is added, and this URL stops being pending only
        // after, so `pending` never reads zero while work remains.
        const auto outlinks = rng.below(3);
        for (std::uint64_t i = 0; i < outlinks; ++i) {
          pending.fetch_add(1);
          frontier.add(static_cast<int>(1 + rng.below(3)),
                       *url + "/child" + std::to_string(i));
          discovered.fetch_add(1, std::memory_order_relaxed);
        }
        pending.fetch_sub(1);
        if (n >= 5'000) stop.store(true, std::memory_order_release);
      }
    });
  }
  for (auto& f : fetchers) f.join();

  std::printf("crawled %llu URLs, discovered %llu, %zu left in frontier\n",
              static_cast<unsigned long long>(fetched.load()),
              static_cast<unsigned long long>(discovered.load()),
              frontier.size());
  return 0;
}
