//===- tests/WideningPropertyTest.cpp - Widening fast-path properties -----==//
///
/// \file
/// Seeded, deterministic property tests for the widening fast path
/// (interned pf-sets, per-graph topology caches, the scratch-based
/// in-place transform loop with its full clash walk per transform):
///
///   (a) the scratch-based production graphWiden is *bit-identical*
///       (structurally equal, not just language-equal) to the
///       from-scratch reference implementation kept in
///       tests/WideningReference.h;
///   (b) soundness: g_old <= g_old V g_new and g_new <= g_old V g_new
///       (the Definition 7.1 correspondence requirement);
///   (c) interned pf-set equality and subset agree with the
///       sorted-vector oracle (TypeGraph::pfSet + std::includes);
///   (d) repeated widening reaches a fixpoint quickly (Theorem 7.1
///       bounds the number of times V can grow a graph);
///
/// plus the satellite staleness audit: TypeGraph::cachesFresh must hold
/// on every value the widening pipeline produces, and every mutator must
/// drop the derived caches.
///
//===----------------------------------------------------------------------===//

#include "WideningReference.h"

#include "support/GraphInterner.h"
#include "support/PfSetInterner.h"
#include "typegraph/GrammarPrinter.h"
#include "typegraph/GraphOps.h"
#include "typegraph/OpCache.h"
#include "typegraph/Widening.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

using namespace gaia;

namespace {

/// Random raw (pre-normalization) graph over a small functor alphabet
/// (same shape as the InternerPropertyTest generator).
class GraphGen {
public:
  GraphGen(SymbolTable &Syms, uint32_t Seed) : Syms(Syms), Rng(Seed) {}

  TypeGraph graph(unsigned Depth) {
    TypeGraph G;
    NodeId Root = genOr(G, Depth);
    G.setRoot(Root);
    return normalizeGraph(G, Syms);
  }

  uint32_t next() { return Rng(); }

private:
  NodeId genOr(TypeGraph &G, unsigned Depth) {
    SuccList Alts;
    unsigned NumAlts = 1 + Rng() % 3;
    for (unsigned I = 0; I != NumAlts; ++I)
      Alts.push_back(genAlt(G, Depth));
    return G.addOr(std::move(Alts));
  }

  NodeId genAlt(TypeGraph &G, unsigned Depth) {
    switch (Rng() % (Depth == 0 ? 4u : 7u)) {
    case 0:
      return G.addAny();
    case 1:
      return G.addInt();
    case 2:
      return G.addFunc(Syms.nilFunctor(), {});
    case 3:
      return G.addFunc(Syms.functor("a", 0), {});
    case 4:
      return G.addFunc(Syms.consFunctor(),
                       {genOr(G, Depth - 1), genOr(G, Depth - 1)});
    case 5:
      return G.addFunc(Syms.functor("s", 1), {genOr(G, Depth - 1)});
    default:
      return G.addFunc(Syms.functor("f", 2),
                       {genOr(G, Depth - 1), genOr(G, Depth - 1)});
    }
  }

  SymbolTable &Syms;
  std::mt19937 Rng;
};

class WideningPropertyTest : public ::testing::TestWithParam<uint32_t> {
protected:
  SymbolTable Syms;
};

//===----------------------------------------------------------------------===//
// (a) + (b): bit-identity against the reference, soundness.
//===----------------------------------------------------------------------===//

TEST_P(WideningPropertyTest, MatchesReferenceBitIdentically) {
  GraphGen Gen(Syms, GetParam() * 9176 + 11);
  WideningOptions Opts;
  WideningScratch WS; // one scratch across all pairs: reuse must not leak
  for (unsigned I = 0; I != 25; ++I) {
    TypeGraph Old = Gen.graph(1 + I % 3);
    TypeGraph New = Gen.graph(1 + (I + 1) % 3);
    TypeGraph Fast = graphWiden(Old, New, Syms, Opts, nullptr, nullptr, &WS);
    TypeGraph Ref = reference::widen(Old, New, Syms, Opts);
    EXPECT_TRUE(structuralEqual(Fast, Ref))
        << "widening diverged from the reference on\n  old: "
        << printGrammarInline(Old, Syms)
        << "\n  new: " << printGrammarInline(New, Syms)
        << "\n  fast: " << printGrammarInline(Fast, Syms)
        << "\n  ref:  " << printGrammarInline(Ref, Syms);
    // Soundness (Definition 7.1): the widening includes both operands.
    EXPECT_TRUE(graphIncludes(Fast, Old, Syms, &WS));
    EXPECT_TRUE(graphIncludes(Fast, New, Syms, &WS));
    // Staleness audit: every produced value carries only fresh caches.
    Fast.assertCachesFresh(Syms);
    EXPECT_TRUE(Fast.cachesFresh(Syms));
  }
}

TEST_P(WideningPropertyTest, MatchesReferenceWithDatabase) {
  GraphGen Gen(Syms, GetParam() * 130363 + 7);
  std::vector<TypeGraph> Database;
  for (unsigned I = 0; I != 4; ++I)
    Database.push_back(Gen.graph(2));
  WideningOptions Opts;
  Opts.Database = &Database;
  for (unsigned I = 0; I != 12; ++I) {
    TypeGraph Old = Gen.graph(1 + I % 3);
    TypeGraph New = Gen.graph(1 + (I + 1) % 3);
    TypeGraph Fast = graphWiden(Old, New, Syms, Opts);
    TypeGraph Ref = reference::widen(Old, New, Syms, Opts);
    EXPECT_TRUE(structuralEqual(Fast, Ref))
        << "database widening diverged on\n  old: "
        << printGrammarInline(Old, Syms)
        << "\n  new: " << printGrammarInline(New, Syms);
  }
}

//===----------------------------------------------------------------------===//
// (c): interned pf-sets agree with the sorted-vector oracle.
//===----------------------------------------------------------------------===//

TEST_P(WideningPropertyTest, PfSetInternerMatchesVectorOracle) {
  GraphGen Gen(Syms, GetParam() * 523 + 1);
  PfSetInterner Pf;
  std::vector<std::vector<FunctorId>> Sets;
  std::vector<PfSetId> Ids;
  // Harvest real pf-sets from random graphs (plus the empty set).
  Sets.push_back({});
  for (unsigned I = 0; I != 12; ++I) {
    TypeGraph G = Gen.graph(1 + I % 3);
    for (NodeId V = 0; V != G.numNodes(); ++V)
      if (G.node(V).Kind == NodeKind::Or)
        Sets.push_back(G.pfSet(V, Syms));
  }
  for (const auto &S : Sets)
    Ids.push_back(Pf.intern(S));
  ASSERT_EQ(Pf.intern(std::vector<FunctorId>{}), PfSetInterner::EmptyId);
  for (size_t I = 0; I != Sets.size(); ++I) {
    // data()/size() reproduce the set.
    ASSERT_EQ(Pf.size(Ids[I]), Sets[I].size());
    EXPECT_TRUE(std::equal(Sets[I].begin(), Sets[I].end(), Pf.data(Ids[I])));
    for (size_t J = 0; J != Sets.size(); ++J) {
      EXPECT_EQ(Ids[I] == Ids[J], Sets[I] == Sets[J])
          << "id equality disagreed with set equality";
      EXPECT_EQ(Pf.subsetOf(Ids[I], Ids[J]),
                std::includes(Sets[J].begin(), Sets[J].end(),
                              Sets[I].begin(), Sets[I].end()))
          << "subsetOf disagreed with std::includes";
    }
  }
}

TEST_P(WideningPropertyTest, FrozenPfTierPreservesIdsAndSubsets) {
  GraphGen Gen(Syms, GetParam() * 86243 + 5);
  PfSetInterner Base;
  std::vector<std::vector<FunctorId>> Sets;
  std::vector<PfSetId> Ids;
  for (unsigned I = 0; I != 8; ++I) {
    TypeGraph G = Gen.graph(2);
    for (NodeId V = 0; V != G.numNodes(); ++V)
      if (G.node(V).Kind == NodeKind::Or) {
        Sets.push_back(G.pfSet(V, Syms));
        Ids.push_back(Base.intern(Sets.back()));
      }
  }
  auto Tier = Base.freeze();
  PfSetInterner Layered(Tier);
  // Tier ids are preserved and resolve as shared hits.
  for (size_t I = 0; I != Sets.size(); ++I) {
    EXPECT_EQ(Layered.intern(Sets[I]), Ids[I]);
    for (size_t J = 0; J != Sets.size(); ++J)
      EXPECT_EQ(Layered.subsetOf(Ids[I], Ids[J]),
                std::includes(Sets[J].begin(), Sets[J].end(),
                              Sets[I].begin(), Sets[I].end()));
  }
  EXPECT_EQ(Layered.stats().Misses, 0u);
  EXPECT_GT(Layered.stats().SharedHits, 0u);
  // New sets allocate past the tier.
  std::vector<FunctorId> Fresh{Syms.functor("zz_fresh", 3)};
  EXPECT_GE(Layered.intern(Fresh), Tier->size());
}

//===----------------------------------------------------------------------===//
// (d): repeated widening stabilizes within a small budget.
//===----------------------------------------------------------------------===//

TEST_P(WideningPropertyTest, RepeatedWideningReachesFixpoint) {
  GraphGen Gen(Syms, GetParam() * 40487 + 23);
  OpCache Ops(Syms, NormalizeOptions{});
  WideningOptions Opts;
  std::vector<TypeGraph> Pool;
  for (unsigned I = 0; I != 6; ++I)
    Pool.push_back(Gen.graph(1 + I % 3));
  TypeGraph W = TypeGraph::makeBottom();
  // Theorem 7.1 bounds how often V can grow a graph; cycling a fixed
  // pool of operands must therefore stabilize long before this budget.
  constexpr unsigned MaxRounds = 64;
  unsigned StableRounds = 0;
  for (unsigned Round = 0; Round != MaxRounds && StableRounds < Pool.size();
       ++Round) {
    const TypeGraph &New = Pool[Round % Pool.size()];
    TypeGraph Next = Ops.widenOf(W, New, Opts, nullptr);
    // The chain is increasing: every iterate includes its predecessor
    // and the operand.
    ASSERT_TRUE(Ops.includes(Next, W));
    ASSERT_TRUE(Ops.includes(Next, New));
    if (Ops.equals(Next, W))
      ++StableRounds; // unchanged against this operand
    else
      StableRounds = 0;
    W = std::move(Next);
  }
  // A full cycle through the pool without growth == fixpoint.
  EXPECT_EQ(StableRounds, Pool.size())
      << "widening chain failed to stabilize within " << MaxRounds
      << " rounds";
}

//===----------------------------------------------------------------------===//
// Satellite: mutator staleness audit.
//===----------------------------------------------------------------------===//

TEST_P(WideningPropertyTest, MutatorsInvalidateDerivedCaches) {
  GraphGen Gen(Syms, GetParam() * 6151 + 3);
  PfSetInterner Pf;
  for (unsigned I = 0; I != 8; ++I) {
    TypeGraph G = Gen.graph(2);
    // Populate every derived cache.
    structuralHash(G);
    (void)G.topology(Syms, Pf);
    ASSERT_TRUE(G.structSigValid());
    ASSERT_NE(G.topoCacheIfPresent(), nullptr);
    ASSERT_TRUE(G.cachesFresh(Syms));
    // Copies share the caches and stay fresh.
    TypeGraph Copy = G;
    EXPECT_TRUE(Copy.structSigValid());
    EXPECT_NE(Copy.topoCacheIfPresent(), nullptr);
    EXPECT_TRUE(Copy.cachesFresh(Syms));
    // Every mutator must drop them (on the mutated value only).
    switch (Gen.next() % 4) {
    case 0:
      G.addAny();
      break;
    case 1:
      G.node(G.root()); // mutable access alone counts as an edit
      break;
    case 2:
      G.setRoot(G.root());
      break;
    default:
      G.sortOrSuccessors(Syms);
      break;
    }
    EXPECT_FALSE(G.structSigValid()) << "mutator kept a stale signature";
    EXPECT_EQ(G.topoCacheIfPresent(), nullptr)
        << "mutator kept a stale topology cache";
    EXPECT_FALSE(G.isNormalizedFor(0, 100000, 0))
        << "mutator kept a stale normalization certificate";
    EXPECT_TRUE(G.cachesFresh(Syms));
    // The untouched copy is unaffected (copy-on-write isolation).
    EXPECT_TRUE(Copy.structSigValid());
    EXPECT_TRUE(Copy.cachesFresh(Syms));
    Copy.assertCachesFresh(Syms);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WideningPropertyTest,
                         ::testing::Range(0u, 10u));

} // namespace
