//===- tests/SmallPtrMapTest.cpp - Hybrid pointer set tests ---------------==//
///
/// \file
/// Unit and differential coverage for support/SmallPtrMap.h, in
/// particular SmallPtrSet::erase (added for the engine's reverse-
/// dependency unlinking): the swap-pop plus position-index scheme must
/// stay consistent across the inline/indexed threshold in both
/// directions.
///
//===----------------------------------------------------------------------===//

#include "support/SmallPtrMap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

using namespace gaia;

namespace {

struct Obj {
  int Tag;
};

class SmallPtrSetTest : public ::testing::Test {
protected:
  SmallPtrSetTest() {
    for (int I = 0; I != 64; ++I)
      Objs.push_back(Obj{I});
  }
  Obj *at(int I) { return &Objs[I]; }

  std::vector<Obj> Objs;
};

TEST_F(SmallPtrSetTest, InsertContainsEraseInline) {
  SmallPtrSet<Obj, 8> S;
  for (int I = 0; I != 5; ++I)
    EXPECT_TRUE(S.insert(at(I)));
  EXPECT_FALSE(S.insert(at(3)));
  EXPECT_EQ(S.size(), 5u);
  EXPECT_TRUE(S.contains(at(4)));

  EXPECT_TRUE(S.erase(at(2)));
  EXPECT_FALSE(S.contains(at(2)));
  EXPECT_FALSE(S.erase(at(2))) << "double erase";
  EXPECT_EQ(S.size(), 4u);
  // Erase the (swapped-in) last and first.
  EXPECT_TRUE(S.erase(at(4)));
  EXPECT_TRUE(S.erase(at(0)));
  EXPECT_EQ(S.size(), 2u);
  EXPECT_TRUE(S.contains(at(1)));
  EXPECT_TRUE(S.contains(at(3)));
  // Reinsert after erase.
  EXPECT_TRUE(S.insert(at(0)));
  EXPECT_EQ(S.size(), 3u);
}

TEST_F(SmallPtrSetTest, EraseAcrossTheIndexThreshold) {
  SmallPtrSet<Obj, 8> S;
  for (int I = 0; I != 20; ++I)
    EXPECT_TRUE(S.insert(at(I))); // engages the index at 9 elements
  for (int I = 0; I < 20; I += 2)
    EXPECT_TRUE(S.erase(at(I)));
  EXPECT_EQ(S.size(), 10u);
  for (int I = 0; I < 20; ++I)
    EXPECT_EQ(S.contains(at(I)), I % 2 == 1) << I;
  // Erase everything; the set must come back empty and reusable.
  for (int I = 1; I < 20; I += 2)
    EXPECT_TRUE(S.erase(at(I)));
  EXPECT_TRUE(S.empty());
  EXPECT_TRUE(S.insert(at(7)));
  EXPECT_TRUE(S.contains(at(7)));
  EXPECT_EQ(S.size(), 1u);
}

TEST_F(SmallPtrSetTest, DifferentialAgainstStdSet) {
  SmallPtrSet<Obj, 8> S;
  std::set<Obj *> Ref;
  // Deterministic mixed op stream crossing the threshold repeatedly.
  uint64_t State = 42;
  auto Rnd = [&](uint32_t Bound) {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<uint32_t>((State >> 33) % Bound);
  };
  for (int Step = 0; Step != 4000; ++Step) {
    Obj *K = at(Rnd(24));
    switch (Rnd(3)) {
    case 0:
      EXPECT_EQ(S.insert(K), Ref.insert(K).second);
      break;
    case 1:
      EXPECT_EQ(S.erase(K), Ref.erase(K) != 0);
      break;
    case 2:
      EXPECT_EQ(S.contains(K), Ref.count(K) != 0);
      break;
    }
    ASSERT_EQ(S.size(), Ref.size());
  }
  std::vector<Obj *> Elems(S.begin(), S.end());
  std::sort(Elems.begin(), Elems.end());
  EXPECT_TRUE(std::equal(Elems.begin(), Elems.end(), Ref.begin(), Ref.end()));
}

} // namespace
