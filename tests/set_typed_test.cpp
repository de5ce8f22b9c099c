// The shared battery: every dictionary implementation in the repository —
// the paper's two structures, the ablation, and all five baselines — is run
// through one typed gtest suite, so semantic divergence between any pair of
// implementations fails loudly.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "lf/baselines/coarse_list.h"
#include "lf/baselines/harris_list.h"
#include "lf/baselines/lazy_list.h"
#include "lf/baselines/michael_list.h"
#include "lf/baselines/restart_skiplist.h"
#include "lf/baselines/rwlock_skiplist.h"
#include "lf/core/fr_list.h"
#include "lf/core/fr_list_noflag.h"
#include "lf/core/fr_list_rc.h"
#include "lf/core/fr_skiplist.h"
#include "lf/core/fr_skiplist_rc.h"
#include "lf/core/set_traits.h"
#include "lf/util/random.h"

namespace {

template <typename S>
class SetContract : public ::testing::Test {};

// The quiescent checks a structure offers, run at the end of every contract
// test: validate() (the paper's INV 1-5 on every level, plus the structure's
// own) and, for the counted structures, validate_accounting() (no node
// leaked or released twice).
template <typename S>
void expect_quiescent_invariants(const S& s) {
  if constexpr (requires { s.validate(); }) {
    const auto rep = s.validate();
    EXPECT_TRUE(rep.ok) << rep.error;
  }
  if constexpr (requires { s.validate_accounting(); }) {
    EXPECT_TRUE(s.validate_accounting());
  }
}

using Implementations = ::testing::Types<
    lf::FRList<long, long>,            // the paper's list
    lf::FRSkipList<long, long>,        // the paper's skip list
    lf::FRListNoFlag<long, long>,      // flag-bit ablation
    lf::FRListRC<long, long>,          // Valois refcounting (Section 5)
    lf::FRSkipListRC<long, long>,      // refcounted skip list (Section 5)
    lf::HarrisList<long, long>,        // Harris 2001
    lf::MichaelList<long, long>,       // Michael 2002
    lf::MichaelListHP<long, long>,     // Michael + hazard pointers
    lf::CoarseList<long, long>,        // global mutex
    lf::LazyList<long, long>,          // Heller et al. lazy list
    lf::RestartSkipList<long, long>,   // Fraser-style skip list
    lf::RWLockSkipList<long, long>>;   // Pugh behind a rwlock
TYPED_TEST_SUITE(SetContract, Implementations);

TYPED_TEST(SetContract, SatisfiesConcept) {
  static_assert(lf::concurrent_map_like<TypeParam>);
  SUCCEED();
}

TYPED_TEST(SetContract, StartsEmpty) {
  TypeParam s;
  EXPECT_EQ(s.size(), 0u);
  EXPECT_FALSE(s.contains(0));
  EXPECT_FALSE(s.find(0).has_value());
  EXPECT_FALSE(s.erase(0));
  expect_quiescent_invariants(s);
}

TYPED_TEST(SetContract, InsertMakesKeyVisible) {
  TypeParam s;
  EXPECT_TRUE(s.insert(17, 170));
  EXPECT_TRUE(s.contains(17));
  ASSERT_TRUE(s.find(17).has_value());
  EXPECT_EQ(*s.find(17), 170);
  EXPECT_EQ(s.size(), 1u);
  expect_quiescent_invariants(s);
}

TYPED_TEST(SetContract, DuplicateInsertFailsAndKeepsOriginal) {
  TypeParam s;
  EXPECT_TRUE(s.insert(5, 50));
  EXPECT_FALSE(s.insert(5, 51));
  // The FR structures also report why an insert failed.
  if constexpr (requires { s.insert_checked(5, 52); }) {
    using Status = typename TypeParam::InsertStatus;
    EXPECT_EQ(s.insert_checked(7, 70), Status::kInserted);
    EXPECT_EQ(s.insert_checked(7, 71), Status::kDuplicate);
    EXPECT_EQ(s.insert_checked(5, 52), Status::kDuplicate);
    EXPECT_TRUE(s.erase(7));
  }
  EXPECT_EQ(*s.find(5), 50);
  EXPECT_EQ(s.size(), 1u);
  expect_quiescent_invariants(s);
}

TYPED_TEST(SetContract, EraseRemovesExactlyOnce) {
  TypeParam s;
  s.insert(9, 90);
  EXPECT_TRUE(s.erase(9));
  EXPECT_FALSE(s.erase(9));
  EXPECT_FALSE(s.contains(9));
  EXPECT_EQ(s.size(), 0u);
  expect_quiescent_invariants(s);
}

TYPED_TEST(SetContract, EraseAbsentFails) {
  TypeParam s;
  s.insert(1, 1);
  s.insert(3, 3);
  EXPECT_FALSE(s.erase(0));
  EXPECT_FALSE(s.erase(2));
  EXPECT_FALSE(s.erase(4));
  EXPECT_EQ(s.size(), 2u);
  expect_quiescent_invariants(s);
}

TYPED_TEST(SetContract, ReinsertionCycle) {
  TypeParam s;
  for (int round = 0; round < 20; ++round) {
    ASSERT_TRUE(s.insert(7, round));
    ASSERT_EQ(*s.find(7), round);
    ASSERT_TRUE(s.erase(7));
    ASSERT_FALSE(s.contains(7));
  }
  expect_quiescent_invariants(s);
}

TYPED_TEST(SetContract, BulkInsertAllVisible) {
  TypeParam s;
  std::vector<long> keys;
  for (long k = 0; k < 400; ++k) keys.push_back(k * 3 + 1);
  lf::Xoshiro256 rng(1);  // shuffled insertion order
  for (std::size_t i = keys.size(); i > 1; --i)
    std::swap(keys[i - 1], keys[rng.below(i)]);
  for (long k : keys) ASSERT_TRUE(s.insert(k, -k));
  EXPECT_EQ(s.size(), keys.size());
  for (long k : keys) {
    ASSERT_TRUE(s.contains(k));
    ASSERT_EQ(*s.find(k), -k);
  }
  EXPECT_FALSE(s.contains(0));
  EXPECT_FALSE(s.contains(2));
  expect_quiescent_invariants(s);
}

TYPED_TEST(SetContract, InterleavedInsertErase) {
  TypeParam s;
  for (long k = 0; k < 300; ++k) ASSERT_TRUE(s.insert(k, k));
  for (long k = 0; k < 300; k += 2) ASSERT_TRUE(s.erase(k));
  for (long k = 300; k < 450; ++k) ASSERT_TRUE(s.insert(k, k));
  for (long k = 0; k < 450; ++k) {
    const bool expect = (k < 300) ? (k % 2 == 1) : true;
    ASSERT_EQ(s.contains(k), expect) << k;
  }
  EXPECT_EQ(s.size(), 150u + 150u);
  expect_quiescent_invariants(s);
}

TYPED_TEST(SetContract, NegativeAndZeroKeys) {
  TypeParam s;
  EXPECT_TRUE(s.insert(-5, 1));
  EXPECT_TRUE(s.insert(0, 2));
  EXPECT_TRUE(s.insert(5, 3));
  EXPECT_TRUE(s.contains(-5));
  EXPECT_TRUE(s.contains(0));
  EXPECT_TRUE(s.erase(-5));
  EXPECT_FALSE(s.contains(-5));
  EXPECT_EQ(s.size(), 2u);
  expect_quiescent_invariants(s);
}

TYPED_TEST(SetContract, DifferentialRandomOps) {
  TypeParam s;
  std::map<long, long> model;
  lf::Xoshiro256 rng(0xbeef);
  for (int i = 0; i < 6000; ++i) {
    const long k = static_cast<long>(rng.below(120));
    switch (rng.below(3)) {
      case 0:
        ASSERT_EQ(s.insert(k, k + 1), model.emplace(k, k + 1).second)
            << "op " << i << " insert " << k;
        break;
      case 1:
        ASSERT_EQ(s.erase(k), model.erase(k) > 0)
            << "op " << i << " erase " << k;
        break;
      default: {
        const auto a = s.find(k);
        ASSERT_EQ(a.has_value(), model.contains(k))
            << "op " << i << " find " << k;
        if (a.has_value()) { ASSERT_EQ(*a, model.at(k)); }
      }
    }
  }
  EXPECT_EQ(s.size(), model.size());
  expect_quiescent_invariants(s);
}

}  // namespace
