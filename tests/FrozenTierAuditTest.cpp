//===- tests/FrozenTierAuditTest.cpp - FrozenArena / audit-seal tests -----==//
///
/// \file
/// Unit tests for the FrozenArena bump allocator (always compiled: the
/// arena is built in every configuration so audit builds cannot drift)
/// plus the audit-mode enforcement tests: with -DGAIA_AUDIT=ON the bulk
/// storage of every frozen cache tier is mprotect(PROT_READ)-sealed after
/// freeze(), and a deliberate post-freeze write must die at the writing
/// instruction. Without GAIA_AUDIT those tests GTEST_SKIP — the contract
/// is then compiler-checked only (const fields).
///
//===----------------------------------------------------------------------===//

#include "support/FrozenArena.h"
#include "support/GraphInterner.h"
#include "support/PfSetInterner.h"
#include "typegraph/OpCache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

using namespace gaia;

namespace {

TEST(FrozenArenaTest, BumpAllocationIsAlignedAndCounted) {
  FrozenArena A;
  EXPECT_EQ(A.bytesAllocated(), 0u);
  void *P1 = A.allocate(10, 1);
  ASSERT_NE(P1, nullptr);
  void *P2 = A.allocate(100, 64);
  ASSERT_NE(P2, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(P2) % 64, 0u);
  EXPECT_NE(P1, P2);
  EXPECT_EQ(A.bytesAllocated(), 110u);
  // Storage is writable while unsealed.
  std::memset(P1, 0xab, 10);
  std::memset(P2, 0xcd, 100);
}

TEST(FrozenArenaTest, LargeAllocationGetsOwnChunk) {
  FrozenArena A;
  // Far beyond the default chunk size; must still succeed and be usable.
  constexpr std::size_t Big = 4 * 1024 * 1024;
  void *P = A.allocate(Big, alignof(std::max_align_t));
  ASSERT_NE(P, nullptr);
  std::memset(P, 0x5a, Big);
  EXPECT_GE(A.bytesAllocated(), Big);
}

TEST(FrozenArenaTest, SealIsIdempotentAndUnsealRestoresWritability) {
  FrozenArena A;
  void *P = A.allocate(64, 8);
  A.seal();
  EXPECT_TRUE(A.sealed());
  A.seal(); // idempotent
  EXPECT_TRUE(A.sealed());
  A.unseal();
  EXPECT_FALSE(A.sealed());
  std::memset(P, 0, 64); // legal again
}

TEST(FrozenArenaDeathTest, AllocateAfterSealAborts) {
  FrozenArena A;
  A.allocate(8, 8);
  A.seal();
  EXPECT_DEATH(A.allocate(8, 8), "sealed arena");
}

TEST(FrozenArenaDeathTest, WriteToSealedStorageFaults) {
  FrozenArena A;
  void *P = A.allocate(64, 8);
  std::memset(P, 1, 64);
  A.seal();
  EXPECT_DEATH(std::memset(P, 2, 64), "");
}

TEST(FrozenArenaTest, ArenaAllocatorBacksStdContainers) {
  FrozenArena A;
  std::vector<int, ArenaAllocator<int>> V{ArenaAllocator<int>(&A)};
  for (int I = 0; I != 1000; ++I)
    V.push_back(I);
  EXPECT_EQ(V[999], 999);
  EXPECT_GE(A.bytesAllocated(), 1000 * sizeof(int));
}

TEST(FrozenArenaTest, NullArenaAllocatorFallsBackToHeap) {
  std::vector<int, ArenaAllocator<int>> V; // default: null arena
  for (int I = 0; I != 100; ++I)
    V.push_back(I);
  EXPECT_EQ(V.size(), 100u);
}

//===----------------------------------------------------------------------===//
// Audit-mode enforcement: post-freeze tier writes must fault.
//===----------------------------------------------------------------------===//

/// Byte-level poke through the const fields — the smuggled-const_cast
/// mutation class the audit build exists to catch.
template <class T> void pokeConst(const T &Obj) {
  *const_cast<char *>(reinterpret_cast<const char *>(&Obj)) =
      static_cast<char>(0x7f);
}

TEST(FrozenTierAuditDeathTest, PfTierPostFreezeWriteFaults) {
#ifndef GAIA_AUDIT
  GTEST_SKIP() << "audit seal requires -DGAIA_AUDIT=ON";
#else
  PfSetInterner Pf;
  std::vector<FunctorId> Set{1, 2, 3};
  Pf.intern(Set);
  std::shared_ptr<const FrozenPfTier> Tier = Pf.freeze();
  ASSERT_TRUE(Tier->Arena && Tier->Arena->sealed());
  ASSERT_FALSE(Tier->Pool.empty());
  EXPECT_DEATH(pokeConst(Tier->Pool[0]), "");
#endif
}

TEST(FrozenTierAuditDeathTest, InternTierPostFreezeWriteFaults) {
#ifndef GAIA_AUDIT
  GTEST_SKIP() << "audit seal requires -DGAIA_AUDIT=ON";
#else
  SymbolTable Syms;
  GraphInterner Interner(Syms);
  Interner.intern(TypeGraph::makeInt());
  Interner.intern(TypeGraph::makeAny());
  std::shared_ptr<const FrozenInternTier> Tier = Interner.freeze();
  ASSERT_TRUE(Tier->Arena && Tier->Arena->sealed());
  ASSERT_FALSE(Tier->Canon.empty());
  // The canonical graph *objects* live in the sealed arena, so even a
  // write to a lazily-filled mutable field faults.
  EXPECT_DEATH(pokeConst(Tier->Canon[0]), "");
#endif
}

TEST(FrozenTierAuditDeathTest, OpTierPostFreezeWriteFaults) {
#ifndef GAIA_AUDIT
  GTEST_SKIP() << "audit seal requires -DGAIA_AUDIT=ON";
#else
  SymbolTable Syms;
  OpCache Ops(Syms, NormalizeOptions{});
  // Populate one cached result so the frozen maps are non-empty.
  Ops.unionOf(TypeGraph::makeInt(), TypeGraph::makeAny());
  std::shared_ptr<const FrozenOpTier> Tier = Ops.freeze();
  ASSERT_TRUE(Tier->Arena && Tier->Arena->sealed());
  ASSERT_FALSE(Tier->Union.empty());
  EXPECT_DEATH(pokeConst(*Tier->Union.begin()), "");
#endif
}

TEST(FrozenTierAuditTest, TiersRemainReadableAfterSeal) {
  // Sanity in both modes: freezing then *reading* the tier works, and
  // layering a fresh cache over it resolves shared lookups.
  SymbolTable Syms;
  OpCache Warm(Syms, NormalizeOptions{});
  Warm.unionOf(TypeGraph::makeInt(), TypeGraph::makeAny());
  std::shared_ptr<const FrozenOpTier> Tier = Warm.freeze();
  EXPECT_GE(Tier->resultCount(), 1u);
  OpCache Worker(Syms, NormalizeOptions{}, Tier);
  TypeGraph U = Worker.unionOf(TypeGraph::makeInt(), TypeGraph::makeAny());
  EXPECT_TRUE(Worker.equals(U, TypeGraph::makeAny()));
  EXPECT_GE(Worker.stats().SharedHits, 1u);
}

} // namespace
