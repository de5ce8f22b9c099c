// Tests of the Section 3.1 adversarial schedule driver — the reproduction
// machinery for experiment E1. The asymptotic claims themselves are
// benchmarked (bench_adversarial); here we verify the driver realizes the
// intended schedule and that the headline separation (local recovery vs
// full restart) already shows at test sizes.
#include <gtest/gtest.h>

#include "lf/baselines/harris_list.h"
#include "lf/core/fr_list.h"
#include "lf/reclaim/leaky.h"
#include "lf/workload/adversary.h"

namespace {

using FR =
    lf::FRList<long, long, std::less<long>, lf::reclaim::LeakyReclaimer>;
using Harris =
    lf::HarrisList<long, long, std::less<long>, lf::reclaim::LeakyReclaimer>;

TEST(Adversary, ScheduleExecutesAllRounds) {
  FR list;
  const auto res = lf::workload::run_adversarial_schedule(list, 3, 128, 64);
  EXPECT_EQ(res.rounds, 64u);
  EXPECT_EQ(res.deletions_done, 64u);  // every round deleted the last node
  EXPECT_EQ(res.inserters, 3);
  // Every round forces one failed C&S per inserter.
  EXPECT_GE(res.steps.cas_failures(), 3u * 64u);
  EXPECT_TRUE(list.validate().ok);
}

TEST(Adversary, RoundsClampedToListSize) {
  FR list;
  const auto res =
      lf::workload::run_adversarial_schedule(list, 2, 16, 1000);
  EXPECT_EQ(res.rounds, 15u);  // can't delete more than n-1 last nodes
  EXPECT_EQ(res.deletions_done, 15u);
}

TEST(Adversary, BacklinksAreActuallyTraversed) {
  FR list;
  const auto res = lf::workload::run_adversarial_schedule(list, 4, 128, 64);
  // Each failed C&S recovers through >= 1 backlink hop in the FR list.
  EXPECT_GE(res.steps.backlink_traversal, 4u * 64u / 2);
  EXPECT_EQ(res.steps.restart, 0u);  // FR never restarts
}

TEST(Adversary, HarrisRestartsFromHeadEveryRound) {
  Harris list;
  const auto res = lf::workload::run_adversarial_schedule(list, 4, 128, 64);
  EXPECT_GE(res.steps.restart, 4u * 64u);  // one restart per failure
  EXPECT_EQ(res.steps.backlink_traversal, 0u);  // Harris has no backlinks
}

TEST(Adversary, FRBeatsHarrisOnTotalSteps) {
  FR fr;
  Harris harris;
  const auto fr_res =
      lf::workload::run_adversarial_schedule(fr, 4, 256, 128);
  const auto h_res =
      lf::workload::run_adversarial_schedule(harris, 4, 256, 128);
  // Identical schedules; Harris must pay strictly (and substantially) more.
  EXPECT_LT(fr_res.steps.essential_steps() * 2,
            h_res.steps.essential_steps());
}

TEST(Adversary, FRRecoveryCostIsSizeIndependent) {
  // The defining property of the paper's design: the per-interference
  // recovery cost must NOT grow with the list size. Compare inserter-side
  // extra steps at two sizes (deleter search costs are subtracted by
  // comparing like with like).
  auto recovery_cost = [](std::uint64_t n) {
    FR list;
    const auto res = lf::workload::run_adversarial_schedule(list, 2, n, 32);
    // Inserter recovery steps = backlinks + the short re-searches; use
    // backlink+curr_update attributable per failure as the proxy.
    return static_cast<double>(res.steps.backlink_traversal) /
           static_cast<double>(res.steps.cas_failures());
  };
  const double small = recovery_cost(64);
  const double large = recovery_cost(1024);
  EXPECT_LT(large, small * 3 + 2);  // flat, not ~16x like a linear cost
}

TEST(Adversary, FRRecoveryCostIsExactlyTwoStepsPerFailedCas) {
  // Each interference costs the inserter its failed C&S plus one backlink
  // hop to the new last node, whose successor is the tail, so the
  // re-search advances nowhere: exactly two essential steps, at any size
  // and any number of inserters.
  for (const int q : {2, 4}) {
    for (const std::uint64_t n : {64u, 1024u}) {
      FR list;
      const auto res =
          lf::workload::run_adversarial_schedule(list, q, n, n / 2);
      EXPECT_EQ(res.recovery_steps_per_failed_cas(), 2.0)
          << "q=" << q << " n=" << n;
    }
  }
}

TEST(Adversary, HarrisRecoveryCostGrowsWithSize) {
  auto steps_per_failure = [](std::uint64_t n) {
    Harris list;
    const auto res = lf::workload::run_adversarial_schedule(list, 2, n, 32);
    return static_cast<double>(res.steps.curr_update) /
           static_cast<double>(res.steps.cas_failures());
  };
  const double small = steps_per_failure(64);
  const double large = steps_per_failure(512);
  EXPECT_GT(large, small * 3);  // grows roughly linearly with n
}

}  // namespace
