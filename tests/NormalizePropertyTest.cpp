//===- tests/NormalizePropertyTest.cpp - Normalization pipeline properties ==//
///
/// \file
/// Property tests for the allocation-light normalization pipeline on
/// seeded random raw graphs:
///
///   1. outputs satisfy every cosmetic restriction (validate),
///   2. idempotence: normalize(normalize(G)) == normalize(G), and —
///      stronger, because re-normalization short-circuits through the
///      certificate — the *full pipeline* re-run on a certificate-
///      stripped copy reproduces the same structure (certificate
///      honesty),
///   3. language preservation, checked against an independent oracle: a
///      direct term-membership interpreter over the raw graph (the
///      subset construction is never consulted), with terms sampled
///      from both the raw and the normalized graph. Containment
///      (raw ⊆ normalized) must always hold; exactness is only promised
///      when no or-closure holds two same-functor constituents of
///      positive arity — the Principal-Functor restriction *merges*
///      those (g(a,b)|g(b,a) becomes g(a|b, a|b)), the representation's
///      inherent over-approximation —, so the reverse direction is
///      asserted only for unambiguous inputs,
///   4. the cached restrict/construct primitives agree with their
///      uncached implementations,
///   5. under small MaxNodes/MaxDepth bounds the output equals an
///      independent depth-first unfold of the minimal automaton, and
///      carries a certificate exactly when no bound fired.
///
//===----------------------------------------------------------------------===//

#include "support/GraphInterner.h"
#include "typegraph/GraphOps.h"
#include "typegraph/Normalize.h"
#include "typegraph/OpCache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <set>
#include <vector>

using namespace gaia;

namespace {

/// A ground Prolog term over the test signature. Integer literals are
/// nullary functors whose name spells a number.
struct Term {
  FunctorId Fn;
  std::vector<Term> Args;
};

/// Direct membership interpreter: t in Cc(V)? Independent of the subset
/// construction — this is the oracle the pipeline is tested against.
/// Or-cycles that consume no input are cut via the active set (a revisit
/// of the same (vertex, term) pair cannot contribute new members).
class Membership {
public:
  Membership(const TypeGraph &G, const SymbolTable &Syms)
      : G(G), Syms(Syms) {}

  bool accepts(NodeId V, const Term &T) {
    const TGNode &N = G.node(V);
    switch (N.Kind) {
    case NodeKind::Any:
      return true;
    case NodeKind::Int:
      return Syms.isIntegerLiteral(T.Fn) && T.Args.empty();
    case NodeKind::Func: {
      if (N.Fn != T.Fn || N.Succs.size() != T.Args.size())
        return false;
      for (size_t I = 0; I != T.Args.size(); ++I)
        if (!accepts(N.Succs[I], T.Args[I]))
          return false;
      return true;
    }
    case NodeKind::Or: {
      auto Key = std::make_pair(V, &T);
      if (!Active.insert(Key).second)
        return false;
      bool Ok = false;
      for (NodeId S : N.Succs)
        if (accepts(S, T)) {
          Ok = true;
          break;
        }
      Active.erase(Key);
      return Ok;
    }
    }
    return false;
  }

private:
  const TypeGraph &G;
  const SymbolTable &Syms;
  std::set<std::pair<NodeId, const Term *>> Active;
};

struct Signature {
  SymbolTable Syms;
  FunctorId A0, B0, C0, F1, G2, Lit;
  Signature() {
    A0 = Syms.functor("a", 0);
    B0 = Syms.functor("b", 0);
    C0 = Syms.functor("c", 0);
    F1 = Syms.functor("f", 1);
    G2 = Syms.functor("g", 2);
    Lit = Syms.functor("7", 0);
  }
};

class GraphGen {
public:
  GraphGen(Signature &Sig, uint32_t Seed) : Sig(Sig), Rng(Seed) {}

  /// A random raw graph: or-vertices wired with a random mix of leaves,
  /// functor vertices and other or-vertices (so or-or chains, sharing
  /// and cycles all occur), rooted at or-vertex 0.
  TypeGraph randomRaw() {
    TypeGraph G;
    uint32_t NumOrs = 2 + Rng() % 6;
    std::vector<NodeId> Ors;
    for (uint32_t I = 0; I != NumOrs; ++I)
      Ors.push_back(G.addOr({}));
    auto RandomOr = [&] { return Ors[Rng() % Ors.size()]; };
    for (NodeId Or : Ors) {
      SuccList Succs;
      uint32_t Degree = Rng() % 4;
      for (uint32_t J = 0; J != Degree; ++J) {
        switch (Rng() % 8) {
        case 0:
          Succs.push_back(G.addAny());
          break;
        case 1:
          Succs.push_back(G.addInt());
          break;
        case 2:
          Succs.push_back(G.addFunc(Sig.A0, {}));
          break;
        case 3:
          Succs.push_back(G.addFunc(Sig.B0, {}));
          break;
        case 4:
          Succs.push_back(G.addFunc(Sig.Lit, {}));
          break;
        case 5:
          Succs.push_back(G.addFunc(Sig.F1, {RandomOr()}));
          break;
        case 6:
          Succs.push_back(G.addFunc(Sig.G2, {RandomOr(), RandomOr()}));
          break;
        case 7:
          Succs.push_back(RandomOr()); // or-or edge
          break;
        }
      }
      G.node(Or).Succs = std::move(Succs);
    }
    G.setRoot(Ors[0]);
    return G;
  }

  /// Samples a ground term from Cc(V), or nullopt when the depth budget
  /// cannot reach a leaf along the tried branches.
  std::optional<Term> sample(const TypeGraph &G, NodeId V, uint32_t Depth) {
    const TGNode &N = G.node(V);
    switch (N.Kind) {
    case NodeKind::Any:
      return groundTerm(2);
    case NodeKind::Int:
      return Term{Sig.Lit, {}};
    case NodeKind::Func: {
      if (Depth == 0 && !N.Succs.empty())
        return std::nullopt;
      Term T{N.Fn, {}};
      for (NodeId S : N.Succs) {
        auto Arg = sample(G, S, Depth ? Depth - 1 : 0);
        if (!Arg)
          return std::nullopt;
        T.Args.push_back(std::move(*Arg));
      }
      return T;
    }
    case NodeKind::Or: {
      if (Depth == 0)
        return std::nullopt;
      std::vector<NodeId> Order(N.Succs.begin(), N.Succs.end());
      std::shuffle(Order.begin(), Order.end(), Rng);
      for (NodeId S : Order)
        if (auto T = sample(G, S, Depth - 1))
          return T;
      return std::nullopt;
    }
    }
    return std::nullopt;
  }

  Term groundTerm(uint32_t Depth) {
    if (Depth == 0 || Rng() % 2 == 0) {
      FunctorId Leaves[] = {Sig.A0, Sig.B0, Sig.C0, Sig.Lit};
      return Term{Leaves[Rng() % 4], {}};
    }
    if (Rng() % 2 == 0)
      return Term{Sig.F1, {groundTerm(Depth - 1)}};
    return Term{Sig.G2, {groundTerm(Depth - 1), groundTerm(Depth - 1)}};
  }

private:
  Signature &Sig;
  std::mt19937 Rng;
};

constexpr uint32_t NumGraphs = 150;
constexpr uint32_t SamplesPerGraph = 12;

/// True if some or-closure of \p G holds two distinct same-functor
/// constituents of positive arity — the case the Principal-Functor
/// restriction resolves by merging argument positions (a strict
/// over-approximation), which voids the exactness half of the
/// language-preservation property.
bool hasAmbiguousClosure(const TypeGraph &G) {
  for (NodeId V = 0; V != G.numNodes(); ++V) {
    if (G.node(V).Kind != NodeKind::Or)
      continue;
    // Expand the or-closure of V.
    std::vector<NodeId> Stack{V};
    std::set<NodeId> SeenOr;
    std::multiset<FunctorId> Fns;
    while (!Stack.empty()) {
      NodeId X = Stack.back();
      Stack.pop_back();
      const TGNode &N = G.node(X);
      if (N.Kind == NodeKind::Or) {
        if (SeenOr.insert(X).second)
          for (NodeId S : N.Succs)
            Stack.push_back(S);
      } else if (N.Kind == NodeKind::Func && !N.Succs.empty()) {
        if (Fns.count(N.Fn))
          return true;
        Fns.insert(N.Fn);
      }
    }
  }
  return false;
}

TEST(NormalizePropertyTest, OutputsValidateAndCertify) {
  Signature Sig;
  GraphGen Gen(Sig, 20260727);
  for (uint32_t I = 0; I != NumGraphs; ++I) {
    TypeGraph Raw = Gen.randomRaw();
    TypeGraph N = normalizeGraph(Raw, Sig.Syms);
    std::string Why;
    EXPECT_TRUE(N.validate(Sig.Syms, &Why)) << Why;
    EXPECT_TRUE(N.isNormalizedFor(0, NormalizeOptions{}.MaxNodes, 0));
  }
}

TEST(NormalizePropertyTest, IdempotentAndCertificateHonest) {
  Signature Sig;
  GraphGen Gen(Sig, 42);
  for (uint32_t I = 0; I != NumGraphs; ++I) {
    TypeGraph Raw = Gen.randomRaw();
    TypeGraph N1 = normalizeGraph(Raw, Sig.Syms);
    // API-level idempotence (allowed to use the certificate fast path).
    TypeGraph N2 = normalizeGraph(N1, Sig.Syms);
    EXPECT_TRUE(structuralEqual(N1, N2));
    // Certificate honesty: strip the certificate (compact() rebuilds the
    // node array, dropping derived caches) and force the full pipeline.
    TypeGraph Stripped = N1.compact();
    ASSERT_FALSE(Stripped.isNormalizedFor(0, NormalizeOptions{}.MaxNodes, 0));
    TypeGraph N3 = normalizeGraph(Stripped, Sig.Syms);
    EXPECT_TRUE(structuralEqual(N1, N3))
        << "full pipeline disagrees with certified fast path";
  }
  // The certified list constructor is held to the same bar under every
  // option set it certifies.
  for (uint32_t Cap : {0u, 2u, 5u}) {
    NormalizeOptions Opts;
    Opts.OrCap = Cap;
    TypeGraph List = TypeGraph::makeAnyList(Sig.Syms, &Opts);
    ASSERT_TRUE(List.isNormalizedFor(Cap, Opts.MaxNodes, Opts.MaxDepth));
    TypeGraph Stripped = List.compact();
    ASSERT_FALSE(Stripped.hasNormCertificate());
    EXPECT_TRUE(
        structuralEqual(normalizeGraph(Stripped, Sig.Syms, Opts), List))
        << "makeAnyList certified for or-cap " << Cap << " but not canonical";
  }
}

/// Test-local reference for bounded unfolding: a depth-first unfold of
/// the minimal automaton under the MaxNodes/MaxDepth rules (a vertex
/// budget counted in allocation order, an or-depth bound), sorted and
/// compacted by the TypeGraph primitives. Sets \p Truncated when a
/// bound replaced a non-Any state by Any.
class ReferenceUnfold {
public:
  ReferenceUnfold(const GrammarAutomaton &A, const NormalizeOptions &Opts)
      : A(A), Opts(Opts) {}

  TypeGraph run(const SymbolTable &Syms) {
    if (A.Empty)
      return TypeGraph::makeBottom();
    TypeGraph Out;
    Out.setRoot(unfold(A.Root, Out));
    Out.sortOrSuccessors(Syms);
    return Out.compact();
  }

  bool Truncated = false;

private:
  NodeId unfold(uint32_t St, TypeGraph &Out) {
    for (const auto &[S, N] : Path)
      if (S == St)
        return N;
    const GrammarAutomaton::State &State = A.States[St];
    NodeId Or = Out.addOr({});
    if (State.IsAny || Out.numNodes() > Opts.MaxNodes ||
        (Opts.MaxDepth != 0 && Path.size() >= Opts.MaxDepth)) {
      Truncated |= !State.IsAny;
      NodeId Leaf = Out.addAny();
      Out.node(Or).Succs = {Leaf};
      return Or;
    }
    Path.emplace_back(St, Or);
    SuccList Children;
    if (State.HasInt)
      Children.push_back(Out.addInt());
    for (const auto &[Fn, Args] : State.Trans) {
      SuccList ArgOrs;
      for (uint32_t Arg : Args)
        ArgOrs.push_back(unfold(Arg, Out));
      Children.push_back(Out.addFunc(Fn, std::move(ArgOrs)));
    }
    Path.pop_back();
    Out.node(Or).Succs = std::move(Children);
    return Or;
  }

  const GrammarAutomaton &A;
  const NormalizeOptions &Opts;
  std::vector<std::pair<uint32_t, NodeId>> Path;
};

TEST(NormalizePropertyTest, TruncatedUnfoldMatchesReference) {
  Signature Sig;
  GraphGen Gen(Sig, 9001);
  uint32_t TruncatedRuns = 0, ExactRuns = 0;
  for (uint32_t I = 0; I != NumGraphs; ++I) {
    TypeGraph Raw = Gen.randomRaw();
    GrammarAutomaton A = buildAutomaton(Raw, Sig.Syms);
    for (uint32_t MaxNodes : {1u, 2u, 4u, 7u, 12u, 100000u})
      for (uint32_t MaxDepth : {0u, 1u, 2u, 3u}) {
        NormalizeOptions Opts;
        Opts.MaxNodes = MaxNodes;
        Opts.MaxDepth = MaxDepth;
        ReferenceUnfold Ref(A, Opts);
        TypeGraph Want = Ref.run(Sig.Syms);
        TypeGraph Got = normalizeGraph(Raw, Sig.Syms, Opts);
        EXPECT_TRUE(structuralEqual(Got, Want))
            << "graph " << I << ", MaxNodes " << MaxNodes << ", MaxDepth "
            << MaxDepth;
        std::string Why;
        EXPECT_TRUE(Got.validate(Sig.Syms, &Why)) << Why;
        // A bound that fired withholds the certificate; otherwise the
        // result is certified for exactly these options.
        EXPECT_EQ(Got.hasNormCertificate(), !Ref.Truncated);
        if (!Ref.Truncated)
          EXPECT_TRUE(Got.isNormalizedFor(0, MaxNodes, MaxDepth));
        (Ref.Truncated ? TruncatedRuns : ExactRuns) += 1;
        // The collapsing union goes through the same bounded emission.
        std::vector<NodeId> Start{Raw.root(), Raw.numNodes() - 1};
        TypeGraph C = collapsingUnionFrom(Raw, Start, Sig.Syms, Opts);
        EXPECT_TRUE(C.validate(Sig.Syms, &Why)) << Why;
      }
  }
  // Both sides of the bound must actually be exercised.
  EXPECT_GT(TruncatedRuns, NumGraphs);
  EXPECT_GT(ExactRuns, NumGraphs);
}

TEST(NormalizePropertyTest, LanguagePreservingAgainstMembershipOracle) {
  Signature Sig;
  GraphGen Gen(Sig, 1507);
  uint32_t Checked = 0;
  for (uint32_t I = 0; I != NumGraphs; ++I) {
    TypeGraph Raw = Gen.randomRaw();
    TypeGraph N = normalizeGraph(Raw, Sig.Syms);
    bool Exact = !hasAmbiguousClosure(Raw);
    // Terms sampled from the raw graph stay in the normalized language
    // (containment holds unconditionally).
    for (uint32_t S = 0; S != SamplesPerGraph; ++S) {
      if (auto T = Gen.sample(Raw, Raw.root(), 6)) {
        ASSERT_TRUE(Membership(Raw, Sig.Syms).accepts(Raw.root(), *T))
            << "sampler produced a term outside its own graph";
        EXPECT_TRUE(Membership(N, Sig.Syms).accepts(N.root(), *T));
        ++Checked;
      }
      // On unambiguous inputs the construction is exact: terms sampled
      // from the normalized graph were already denoted by the raw one.
      if (Exact && !N.isBottomGraph())
        if (auto T = Gen.sample(N, N.root(), 6)) {
          EXPECT_TRUE(Membership(Raw, Sig.Syms).accepts(Raw.root(), *T));
          ++Checked;
        }
    }
  }
  // The generator must not have degenerated into all-bottom graphs.
  EXPECT_GT(Checked, NumGraphs);
}

TEST(NormalizePropertyTest, CachedRestrictAndConstructMatchUncached) {
  Signature Sig;
  GraphGen Gen(Sig, 7);
  NormalizeOptions Norm;
  OpCache Ops(Sig.Syms, Norm);
  for (uint32_t I = 0; I != NumGraphs; ++I) {
    TypeGraph N = normalizeGraph(Gen.randomRaw(), Sig.Syms);
    for (FunctorId Fn : {Sig.F1, Sig.G2, Sig.A0, Sig.Lit}) {
      std::vector<TypeGraph> Raw, Cached;
      bool OkRaw = graphRestrict(N, Fn, Sig.Syms, Norm, Raw);
      bool OkCached = Ops.restrictOf(N, Fn, Cached);
      ASSERT_EQ(OkRaw, OkCached);
      ASSERT_EQ(Raw.size(), Cached.size());
      for (size_t J = 0; J != Raw.size(); ++J)
        EXPECT_TRUE(graphEquals(Raw[J], Cached[J], Sig.Syms));
      if (OkRaw && !Raw.empty()) {
        TypeGraph CRaw = graphConstruct(Fn, Raw, Sig.Syms, Norm);
        TypeGraph CCached = Ops.constructOf(Fn, Cached);
        EXPECT_TRUE(structuralEqual(CRaw, CCached));
      }
    }
  }
}

} // namespace
