//===- tests/InternerPropertyTest.cpp - Hash-consing / op-cache tests -----==//
///
/// \file
/// Seeded, deterministic property tests for the canonical-id layer:
///
///   - interning is language-preserving: the canonical representative of
///     intern(G) is language-equal to G;
///   - the canonical-id invariant: language-equal graphs (including
///     structurally different hand-built ones) receive equal ids, and
///     OpCache::equals is therefore an O(1) id comparison agreeing with
///     the two-walk graphEquals;
///   - cached operation results equal uncached recomputation across
///     union / intersection / inclusion / widening on generated graphs;
///   - the keyless path's premise: every certified graph is the
///     canonical unfold of its language, so certified graphs have equal
///     automaton keys iff they are structurally equal, and an
///     uncertified alias arriving mid-stream (backfill) or over a frozen
///     tier still resolves to its language's id;
///   - the RelocationTable currency freezes carry ids through: the
///     identity table of a stacking freeze, and a fresh table whose ids
///     stay Dropped until set.
///
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"
#include "core/Report.h"
#include "programs/Benchmarks.h"
#include "support/GraphInterner.h"
#include "support/Relocation.h"
#include "typegraph/GrammarParser.h"
#include "typegraph/GrammarPrinter.h"
#include "typegraph/GraphOps.h"
#include "typegraph/OpCache.h"
#include "typegraph/Widening.h"

#include <gtest/gtest.h>

#include <random>

using namespace gaia;

namespace {

/// Random raw (pre-normalization) graph over a small functor alphabet.
/// Depth-bounded recursive construction; normalizeGraph turns the result
/// into the canonical form all analyzer values are in.
class GraphGen {
public:
  GraphGen(SymbolTable &Syms, uint32_t Seed) : Syms(Syms), Rng(Seed) {}

  TypeGraph graph(unsigned Depth) {
    TypeGraph G;
    NodeId Root = genOr(G, Depth);
    G.setRoot(Root);
    return normalizeGraph(G, Syms);
  }

private:
  NodeId genOr(TypeGraph &G, unsigned Depth) {
    std::vector<NodeId> Alts;
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

/// A certificate-free copy: same nodes and root, every derived cache
/// dropped (setRoot invalidates them).
TypeGraph uncertified(const TypeGraph &G) {
  TypeGraph C = G;
  C.setRoot(G.root());
  return C;
}

/// Unrolls the root once: edges that re-enter the root are redirected to
/// a second copy of the whole graph. Same language, uncertified, and a
/// different shape whenever some reachable edge enters the root.
TypeGraph unrollRoot(const TypeGraph &G) {
  const NodeId N = G.numNodes();
  TypeGraph H;
  for (NodeId Copy = 0; Copy != 2; ++Copy)
    for (NodeId V = 0; V != N; ++V) {
      const TGNode &Node = G.node(V);
      SuccList Succs;
      for (NodeId S : Node.Succs)
        Succs.push_back(Copy == 0 && S == G.root() ? S + N : S + Copy * N);
      switch (Node.Kind) {
      case NodeKind::Any:
        H.addAny();
        break;
      case NodeKind::Int:
        H.addInt();
        break;
      case NodeKind::Func:
        H.addFunc(Node.Fn, std::move(Succs));
        break;
      case NodeKind::Or:
        H.addOr(std::move(Succs));
        break;
      }
    }
  H.setRoot(G.root());
  return H;
}

class InternerPropertyTest : public ::testing::TestWithParam<uint32_t> {
protected:
  TypeGraph parse(const char *Text) {
    std::string Err;
    std::optional<TypeGraph> G = parseGrammar(Text, Syms, &Err);
    EXPECT_TRUE(G.has_value()) << Err;
    return G ? *G : TypeGraph::makeBottom();
  }

  SymbolTable Syms;
};

TEST_P(InternerPropertyTest, InternIsLanguagePreserving) {
  GraphGen Gen(Syms, GetParam());
  GraphInterner Interner(Syms);
  for (unsigned I = 0; I != 20; ++I) {
    TypeGraph G = Gen.graph(1 + I % 3);
    CanonId Id = Interner.intern(G);
    EXPECT_TRUE(graphEquals(Interner.graph(Id), G, Syms))
        << "canonical representative changed the language of\n"
        << printGrammar(G, Syms);
    // Interning the same graph again is stable.
    EXPECT_EQ(Interner.intern(G), Id);
  }
}

TEST_P(InternerPropertyTest, LanguageEqualGraphsShareIds) {
  GraphGen Gen(Syms, GetParam() * 7919 + 17);
  GraphInterner Interner(Syms);
  for (unsigned I = 0; I != 12; ++I) {
    TypeGraph G = Gen.graph(1 + I % 3);
    CanonId Id = Interner.intern(G);
    // Language-preserving transformations must not mint new ids.
    EXPECT_EQ(Interner.intern(normalizeGraph(G, Syms)), Id);
    EXPECT_EQ(Interner.intern(graphUnion(G, G, Syms)), Id);
    EXPECT_EQ(Interner.intern(graphIntersect(G, G, Syms)), Id);
  }
}

TEST_P(InternerPropertyTest, CachedOpsEqualUncachedRecomputation) {
  GraphGen Gen(Syms, GetParam() * 104729 + 3);
  OpCache Ops(Syms, NormalizeOptions{});
  WideningOptions WOpts;
  for (unsigned I = 0; I != 10; ++I) {
    TypeGraph A = Gen.graph(1 + I % 3);
    TypeGraph B = Gen.graph(1 + (I + 1) % 3);

    TypeGraph U = Ops.unionOf(A, B);
    EXPECT_TRUE(graphEquals(U, graphUnion(A, B, Syms), Syms));
    TypeGraph M = Ops.intersectOf(A, B);
    EXPECT_TRUE(graphEquals(M, graphIntersect(A, B, Syms), Syms));
    EXPECT_EQ(Ops.includes(A, B), graphIncludes(A, B, Syms));
    EXPECT_EQ(Ops.includes(B, A), graphIncludes(B, A, Syms));
    TypeGraph W = Ops.widenOf(A, B, WOpts, nullptr);
    EXPECT_TRUE(graphEquals(W, graphWiden(A, B, Syms, WOpts), Syms));

    // Second round: answered from the cache, same results.
    uint64_t HitsBefore = Ops.stats().Hits;
    EXPECT_TRUE(graphEquals(Ops.unionOf(A, B), U, Syms));
    EXPECT_TRUE(graphEquals(Ops.unionOf(B, A), U, Syms)); // commutative key
    EXPECT_TRUE(graphEquals(Ops.intersectOf(A, B), M, Syms));
    EXPECT_TRUE(graphEquals(Ops.widenOf(A, B, WOpts, nullptr), W, Syms));
    EXPECT_GE(Ops.stats().Hits, HitsBefore + 4);
  }
}

TEST_P(InternerPropertyTest, EqualsMatchesGraphEquals) {
  GraphGen Gen(Syms, GetParam() * 31 + 5);
  OpCache Ops(Syms, NormalizeOptions{});
  std::vector<TypeGraph> Pool;
  for (unsigned I = 0; I != 8; ++I)
    Pool.push_back(Gen.graph(1 + I % 3));
  for (const TypeGraph &A : Pool)
    for (const TypeGraph &B : Pool)
      EXPECT_EQ(Ops.equals(A, B), graphEquals(A, B, Syms));
}

/// The premise of the interner's keyless path: a certificate under any
/// options marks the canonical unfold of the graph's own language, so
/// re-normalizing a certificate-free copy under unbounded options must
/// reproduce it structurally.
TEST_P(InternerPropertyTest, CertifiedOpResultsAreCanonicalUnfolds) {
  GraphGen Gen(Syms, GetParam() * 65537 + 11);
  auto ExpectCanonical = [&](const TypeGraph &G) {
    ASSERT_TRUE(G.hasNormCertificate()) << printGrammar(G, Syms);
    EXPECT_TRUE(structuralEqual(normalizeGraph(uncertified(G), Syms), G))
        << "certified but not canonical:\n"
        << printGrammar(G, Syms);
    EXPECT_TRUE(G.cachesFresh(Syms));
  };
  const FunctorId Fns[] = {Syms.consFunctor(), Syms.functor("f", 2),
                           Syms.functor("s", 1), Syms.nilFunctor()};
  for (uint32_t Cap : {0u, 5u, 2u}) {
    NormalizeOptions Opts;
    Opts.OrCap = Cap;
    WideningOptions WOpts;
    WOpts.Norm = Opts;
    for (unsigned I = 0; I != 6; ++I) {
      TypeGraph A = normalizeGraph(Gen.graph(1 + I % 3), Syms, Opts);
      TypeGraph B = normalizeGraph(Gen.graph(1 + (I + 1) % 3), Syms, Opts);
      ExpectCanonical(A);
      ExpectCanonical(graphUnion(A, B, Syms, Opts));
      ExpectCanonical(graphIntersect(A, B, Syms, Opts));
      ExpectCanonical(graphWiden(A, B, Syms, WOpts));
      ExpectCanonical(graphConstruct(Fns[0], {A, B}, Syms, Opts));
      ExpectCanonical(graphConstruct(Fns[2], {B}, Syms, Opts));
      for (FunctorId Fn : Fns) {
        std::vector<TypeGraph> Args;
        if (graphRestrict(A, Fn, Syms, Opts, Args))
          for (const TypeGraph &Arg : Args)
            ExpectCanonical(Arg);
      }
      // The DepthK ablation withholds the certificate when it truncates;
      // whatever it does certify must be canonical all the same.
      WideningOptions Depth = WOpts;
      Depth.Mode = WidenMode::DepthK;
      Depth.DepthK = 1;
      TypeGraph D = graphWiden(A, B, Syms, Depth);
      if (D.hasNormCertificate())
        ExpectCanonical(D);
    }
  }
  // The certified canonical constructors.
  ExpectCanonical(TypeGraph::makeAny());
  ExpectCanonical(TypeGraph::makeInt());
  ExpectCanonical(TypeGraph::makeBottom());
  for (FunctorId Fn : Fns)
    ExpectCanonical(TypeGraph::makeFunctorOfAny(Syms, Fn));
  // makeAnyList is deliberately uncertified, so interning it takes the
  // keyed route.
  EXPECT_FALSE(TypeGraph::makeAnyList(Syms).hasNormCertificate());
}

TEST_P(InternerPropertyTest, CertifiedKeysAgreeWithStructure) {
  GraphGen Gen(Syms, GetParam() * 2713 + 29);
  std::vector<TypeGraph> Pool;
  for (unsigned I = 0; I != 8; ++I) {
    TypeGraph A = Gen.graph(1 + I % 3);
    TypeGraph B = Gen.graph(1 + (I + 2) % 3);
    Pool.push_back(A);
    Pool.push_back(graphUnion(A, B, Syms));
    Pool.push_back(graphUnion(B, A, Syms)); // same language, built apart
    Pool.push_back(graphIntersect(A, B, Syms));
    Pool.push_back(normalizeGraph(uncertified(A), Syms));
  }
  std::vector<std::vector<uint64_t>> Keys;
  for (const TypeGraph &G : Pool) {
    ASSERT_TRUE(G.hasNormCertificate());
    Keys.push_back(automatonKey(G, Syms));
  }
  for (size_t I = 0; I != Pool.size(); ++I)
    for (size_t J = 0; J != Pool.size(); ++J)
      EXPECT_EQ(Keys[I] == Keys[J], structuralEqual(Pool[I], Pool[J]))
          << printGrammar(Pool[I], Syms) << "vs\n"
          << printGrammar(Pool[J], Syms);
}

TEST_P(InternerPropertyTest, MidStreamUncertifiedAliasBackfillsKeys) {
  GraphGen Gen(Syms, GetParam() * 977 + 1);
  TypeGraph IntList = parse("T ::= [] | cons(Int,T).");
  TypeGraph Nat = parse("N ::= z | s(N).");
  std::vector<TypeGraph> Before, After;
  for (unsigned I = 0; I != 8; ++I)
    Before.push_back(Gen.graph(1 + I % 3));
  Before.push_back(IntList);
  for (unsigned I = 0; I != 8; ++I)
    After.push_back(Gen.graph(1 + I % 3));
  After.push_back(Nat);
  // Uncertified aliases: of a language already interned (an alias hit)
  // and of one still to come (an uncertified canonical entry that the
  // later certified Nat must find by automaton), plus unrolled
  // generated graphs.
  std::vector<TypeGraph> Pivot = {unrollRoot(IntList), unrollRoot(Nat)};
  for (unsigned I = 0; I != 4; ++I)
    Pivot.push_back(unrollRoot(Gen.graph(2 + I % 2)));
  ASSERT_FALSE(structuralEqual(Pivot[0], IntList));
  ASSERT_FALSE(structuralEqual(Pivot[1], Nat));

  GraphInterner Interner(Syms);
  std::vector<TypeGraph> Stream;
  std::vector<CanonId> Ids;
  auto Feed = [&](const std::vector<TypeGraph> &Gs) {
    for (const TypeGraph &G : Gs) {
      Stream.push_back(G);
      Ids.push_back(Interner.intern(G));
    }
  };
  Feed(Before);
  EXPECT_EQ(Interner.stats().KeysBuilt, 0u);
  uint32_t Entries = Interner.size();
  Feed(Pivot);
  // The backfill keyed every entry interned before the pivot; the two
  // unrolled recursive aliases are structural misses and keyed too (an
  // unrolled generated graph may not re-enter its root, and then is
  // just a structural hit).
  EXPECT_GE(Interner.stats().KeysBuilt, Entries + 2);
  EXPECT_GE(Interner.stats().AutoHits, 1u);
  Feed(After);
  EXPECT_GE(Interner.stats().AutoHits, 2u);

  std::vector<std::vector<uint64_t>> Keys;
  for (const TypeGraph &G : Stream)
    Keys.push_back(automatonKey(G, Syms));
  for (size_t I = 0; I != Stream.size(); ++I)
    for (size_t J = 0; J != Stream.size(); ++J)
      EXPECT_EQ(Ids[I] == Ids[J], Keys[I] == Keys[J])
          << printGrammar(Stream[I], Syms) << "vs\n"
          << printGrammar(Stream[J], Syms);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InternerPropertyTest,
                         ::testing::Range(0u, 12u));

//===----------------------------------------------------------------------===//
// Deterministic corner cases.
//===----------------------------------------------------------------------===//

class InternerTest : public ::testing::Test {
protected:
  TypeGraph parse(const char *Text) {
    std::string Err;
    std::optional<TypeGraph> G = parseGrammar(Text, Syms, &Err);
    EXPECT_TRUE(G.has_value()) << Err;
    return G ? *G : TypeGraph::makeBottom();
  }

  SymbolTable Syms;
};

TEST_F(InternerTest, HandBuiltConstructorsInternCanonically) {
  GraphInterner Interner(Syms);
  // The hand-built make* graphs and their normalized forms must share
  // ids — this is what makes the structural fast path safe.
  EXPECT_EQ(Interner.intern(TypeGraph::makeAny()),
            Interner.intern(normalizeGraph(TypeGraph::makeAny(), Syms)));
  EXPECT_EQ(Interner.intern(TypeGraph::makeInt()),
            Interner.intern(normalizeGraph(TypeGraph::makeInt(), Syms)));
  EXPECT_EQ(Interner.intern(TypeGraph::makeBottom()),
            Interner.intern(normalizeGraph(TypeGraph::makeBottom(), Syms)));
  TypeGraph List = TypeGraph::makeAnyList(Syms);
  EXPECT_EQ(Interner.intern(List),
            Interner.intern(normalizeGraph(List, Syms)));
  // Distinct languages get distinct ids.
  EXPECT_NE(Interner.intern(TypeGraph::makeAny()),
            Interner.intern(TypeGraph::makeInt()));
  EXPECT_NE(Interner.intern(List), Interner.intern(TypeGraph::makeAny()));
}

TEST_F(InternerTest, StructurallyDifferentSpellingsShareAnId) {
  GraphInterner Interner(Syms);
  // Two grammars for the same language written differently: the second
  // has a redundant unfolding that normalization collapses, but we
  // intern a *hand-built* pre-collapse variant via parseGrammar (which
  // normalizes) plus the canonical list constructor.
  TypeGraph A = parse("T ::= [] | cons(Any,T).");
  TypeGraph B = TypeGraph::makeAnyList(Syms);
  EXPECT_EQ(Interner.intern(A), Interner.intern(B));
  EXPECT_EQ(Interner.stats().Misses, 1u);
}

TEST_F(InternerTest, WorkerResolvesUncertifiedAliasToTierId) {
  const char *ZListText = "T ::= [] | cons(z,T).";
  for (bool WithUncertified : {false, true}) {
    GraphInterner Builder(Syms);
    TypeGraph IntList = parse("T ::= [] | cons(Int,T).");
    TypeGraph Nat = parse("N ::= z | s(N).");
    CanonId ListId = Builder.intern(IntList);
    CanonId NatId = Builder.intern(Nat);
    Builder.intern(TypeGraph::makeAny());
    CanonId ZListId = InvalidCanon;
    if (WithUncertified) {
      // An uncertified alias, and an uncertified canonical entry.
      EXPECT_EQ(Builder.intern(unrollRoot(Nat)), NatId);
      ZListId = Builder.intern(unrollRoot(parse(ZListText)));
    }
    EXPECT_EQ(Builder.stats().KeysBuilt, WithUncertified ? 5u : 0u);

    std::shared_ptr<const FrozenInternTier> Tier = Builder.freeze();
    EXPECT_EQ(Tier->HasUncertified, WithUncertified);
    // freeze() keyed every entry, certified or not.
    EXPECT_EQ(Tier->AutoMap.size(), static_cast<size_t>(Tier->size()));

    GraphInterner Worker(Syms, Tier);
    EXPECT_EQ(Worker.intern(unrollRoot(IntList)), ListId);
    EXPECT_EQ(Worker.intern(unrollRoot(Nat)), NatId);
    EXPECT_EQ(Worker.intern(parse("N ::= z | s(N).")), NatId);
    // A certified graph whose language the tier holds only in an
    // uncertified shape must be keyed to find it.
    CanonId ZList = Worker.intern(parse(ZListText));
    if (WithUncertified)
      EXPECT_EQ(ZList, ZListId);
    else
      EXPECT_EQ(ZList, Tier->size());
    EXPECT_EQ(Worker.deltaSize(), WithUncertified ? 0u : 1u);
  }
}

TEST_F(InternerTest, LyingCertificateFailsLoudlyInAuditedBuilds) {
#if defined(NDEBUG) && !defined(GAIA_AUDIT)
  GTEST_SKIP() << "the certificate audit runs in Debug and GAIA_AUDIT builds";
#else
  // A valid, language-preserving but non-canonical shape, certified.
  TypeGraph Liar = unrollRoot(parse("T ::= [] | cons(Int,T)."));
  ASSERT_TRUE(Liar.validate(Syms));
  Liar.markNormalized(0, 0, 0);
  std::string Why;
  EXPECT_FALSE(Liar.cachesFresh(Syms, &Why));
  EXPECT_EQ(Why, "normalization certificate on a non-canonical graph");
  GraphInterner Interner(Syms);
  EXPECT_DEATH(Interner.intern(Liar), "lying certificate");
#endif
}

TEST_F(InternerTest, SectionNineRunsBuildNoAutomataAndKeepFingerprints) {
  for (const BenchmarkProgram &B : table123Suite()) {
    AnalysisResult R = analyzeProgram(B.Source, B.GoalSpec);
    ASSERT_TRUE(R.Ok) << B.Key;
    // Every value the cold analysis interns is certified.
    EXPECT_EQ(R.Stats.InternKeysBuilt, 0u) << B.Key;
    EXPECT_EQ(R.Stats.InternAutoHits, 0u) << B.Key;
    EXPECT_EQ(R.Stats.InternMisses, R.Stats.InternedGraphs) << B.Key;
    // The interner counters are diagnostics, not results.
    std::string Fp = analysisFingerprint(R);
    R.Stats.InternStructHits += 1;
    R.Stats.InternAutoHits += 1;
    R.Stats.InternMisses += 1;
    R.Stats.InternKeysBuilt += 1;
    EXPECT_EQ(analysisFingerprint(R), Fp) << B.Key;
  }
}

TEST_F(InternerTest, StructuralHashIsBfsCanonical) {
  // makeAny builds [Any, Or] with root 1; the normalized form is
  // [Or, Any] with root 0. Same BFS shape, same hash.
  TypeGraph A = TypeGraph::makeAny();
  TypeGraph B = normalizeGraph(A, Syms);
  EXPECT_EQ(structuralHash(A), structuralHash(B));
  EXPECT_TRUE(structuralEqual(A, B));
  EXPECT_FALSE(structuralEqual(A, TypeGraph::makeInt()));
}

TEST(RelocationTableTest, IdentityMapsEveryIdToItself) {
  RelocationTable<CanonId> R = RelocationTable<CanonId>::identity(5);
  EXPECT_EQ(R.size(), 5u);
  EXPECT_EQ(R.liveCount(), 5u);
  for (CanonId Id = 0; Id != 5; ++Id) {
    EXPECT_TRUE(R.live(Id));
    EXPECT_EQ(R.map(Id), Id);
  }
}

TEST(RelocationTableTest, FreshTableDropsEverythingUntilSet) {
  RelocationTable<CanonId> R(4);
  EXPECT_EQ(R.liveCount(), 0u);
  for (CanonId Id = 0; Id != 4; ++Id)
    EXPECT_FALSE(R.live(Id));
  R.set(2, 0);
  R.set(3, 1);
  EXPECT_EQ(R.liveCount(), 2u);
  EXPECT_FALSE(R.live(0));
  EXPECT_TRUE(R.live(3));
  EXPECT_EQ(R.map(2), 0u);
  EXPECT_EQ(R.map(3), 1u);
}

} // namespace
