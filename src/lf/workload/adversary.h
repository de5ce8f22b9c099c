// The Section 3.1 adversarial schedule, realized deterministically.
//
// The paper's lower-bound execution against Harris's list: "First insert n
// keys into the list. Then make one process P_q repeatedly delete the last
// node of the list, while the rest of the processes P_1..P_{q-1} attempt to
// insert new nodes at the end of the list. In each round of the execution,
// P_q marks a node right after processes P_1..P_{q-1} have located the
// correct insertion position, but before any of them perform a C&S."
//
// Under that schedule the total work is Ω(q·n²) for Harris (every failed
// C&S restarts from the head) but only O(q·(n + rounds)) for the FR list
// (every failed C&S recovers through one backlink). This driver realizes
// the schedule exactly, using the two-phase insertion hooks both lists
// expose (insert_locate / insert_try_once):
//
//   phase 0   inserters locate their insertion position at the end
//   round r   (a) the deleter erases the current last node;
//             (b) each inserter performs ONE C&S attempt — which fails,
//                 because its located predecessor just got marked — and
//                 recovers per its algorithm (backlink vs full restart).
//
// Phases are separated by std::barrier, so the interleaving is the paper's
// regardless of OS scheduling — this is what makes E1 reproducible on any
// machine, including single-core ones. Costs are reported in the paper's
// step units via stats deltas.
#pragma once

#include <barrier>
#include <cstdint>
#include <thread>
#include <vector>

#include "lf/instrument/counters.h"

namespace lf::workload {

struct AdversaryResult {
  std::uint64_t rounds = 0;
  int inserters = 0;
  std::uint64_t initial_size = 0;
  stats::Snapshot steps;          // delta across the whole schedule
  stats::Snapshot locate_steps;   // phase 0: inserters' initial searches
  stats::Snapshot deleter_steps;  // the deleter's own operations
  std::uint64_t deletions_done = 0;

  // The inserters' post-locate work: C&S attempts plus recovery traversal.
  // This is the quantity the paper's Section 3.1 argument is about —
  // Θ(n) per interference for Harris, O(1) for the FR list. The deleter's
  // Ω(n) searches and the one-time locate cost are identical under both
  // algorithms and are reported separately.
  stats::Snapshot recovery_steps() const {
    return steps - locate_steps - deleter_steps;
  }

  double recovery_steps_per_failed_cas() const {
    const std::uint64_t failures = steps.cas_failures();
    if (failures == 0) return 0;
    return static_cast<double>(recovery_steps().essential_steps()) /
           static_cast<double>(failures);
  }
};

// List must provide: insert(k, v), erase(k), insert_locate(k, v, cursor),
// insert_try_once(cursor) and the InsertCursor/TryResult types — i.e.
// FRList, or any of the four mark-only lists on mark::Core (HarrisList,
// MichaelList, MichaelListHP, FRListNoFlag), over integer keys.
template <typename List>
AdversaryResult run_adversarial_schedule(List& list, int inserters,
                                         std::uint64_t initial_size,
                                         std::uint64_t rounds) {
  using Key = typename List::key_type;

  // Build the initial list 1..n.
  for (std::uint64_t i = 1; i <= initial_size; ++i)
    list.insert(static_cast<Key>(i), static_cast<Key>(i));
  if (rounds >= initial_size) rounds = initial_size - 1;

  // Each phase boundary is a barrier arrival by every inserter + deleter.
  std::barrier phase(inserters + 1);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(inserters));
  const stats::Snapshot before = stats::aggregate();

  for (int t = 0; t < inserters; ++t) {
    threads.emplace_back([&, t] {
      typename List::InsertCursor cur;
      // Locate a key beyond the end of the list: predecessor = last node.
      const auto key = static_cast<Key>(initial_size + 1 +
                                        static_cast<std::uint64_t>(t));
      list.insert_locate(key, key, cur);
      phase.arrive_and_wait();  // end of phase 0
      for (std::uint64_t r = 0; r < rounds; ++r) {
        phase.arrive_and_wait();  // wait for the deleter's round-r deletion
        if (cur.node != nullptr) list.insert_try_once(cur);
        phase.arrive_and_wait();  // round r attempt finished
      }
      // The insertions never complete under this schedule (that is the
      // point); release the never-published nodes.
      delete cur.node;
      cur.node = nullptr;
    });
  }

  std::uint64_t deletions = 0;
  stats::Snapshot locate_steps;
  stats::Snapshot deleter_delta;
  {
    phase.arrive_and_wait();  // end of phase 0: all inserters located
    // Between this barrier and the first round barrier the inserters do no
    // counted work, so this snapshot isolates the locate phase exactly.
    locate_steps = stats::aggregate() - before;
    const stats::Snapshot deleter_before = stats::tls().read();
    for (std::uint64_t r = 0; r < rounds; ++r) {
      // Delete the current last original node, marking the predecessor the
      // inserters are about to C&S.
      const auto victim = static_cast<Key>(initial_size - r);
      if (list.erase(victim)) ++deletions;
      phase.arrive_and_wait();  // release the inserters' C&S attempts
      phase.arrive_and_wait();  // wait for all attempts/recoveries
    }
    // The deleter runs on this thread: its thread-local counter delta is
    // exactly the deleter-side cost, even though inserters ran meanwhile.
    deleter_delta = stats::tls().read() - deleter_before;
  }
  for (auto& th : threads) th.join();

  AdversaryResult out;
  out.rounds = rounds;
  out.inserters = inserters;
  out.initial_size = initial_size;
  out.steps = stats::aggregate() - before;
  out.locate_steps = locate_steps;
  out.deleter_steps = deleter_delta;
  out.deletions_done = deletions;
  return out;
}

}  // namespace lf::workload
