//===- tests/PatSubTest.cpp - Generic pattern domain tests ----------------==//
///
/// \file
/// Tests for Pat(R): abstract unification, frames, same-value
/// propagation, projection, call-result integration, join/widen/leq —
/// instantiated with both the type-graph leaf and the one-point
/// (principal functor) leaf.
///
//===----------------------------------------------------------------------===//

#include "pat/PatSub.h"

#include "domains/PFLeaf.h"
#include "domains/TypeLeaf.h"
#include "typegraph/GrammarParser.h"
#include "typegraph/GrammarPrinter.h"
#include "typegraph/GraphOps.h"

#include <gtest/gtest.h>

#include <random>

using namespace gaia;

namespace {

class PatTypeTest : public ::testing::Test {
protected:
  PatTypeTest() : Ctx{Syms, {}, {}, nullptr} {}

  TypeGraph parse(const char *Text) {
    std::string Err;
    std::optional<TypeGraph> G = parseGrammar(Text, Syms, &Err);
    EXPECT_TRUE(G.has_value()) << Err;
    return G ? *G : TypeGraph::makeBottom();
  }

  bool valueEquals(const TypeGraph &A, const TypeGraph &B) {
    return graphEquals(A, B, Syms);
  }

  SymbolTable Syms;
  TypeLeaf::Context Ctx;
};

using TSub = PatSub<TypeLeaf>;

TEST_F(PatTypeTest, TopHasAnySlots) {
  TSub S = TSub::top(Ctx, 3);
  EXPECT_FALSE(S.isBottom());
  EXPECT_EQ(S.numSlots(), 3u);
  EXPECT_TRUE(valueEquals(S.slotValue(Ctx, 0), TypeGraph::makeAny()));
  EXPECT_FALSE(S.sameValue(0, 1));
}

TEST_F(PatTypeTest, UnifyVarsSharesValue) {
  TSub S = TSub::top(Ctx, 2);
  S.unifyVars(Ctx, 0, 1);
  EXPECT_TRUE(S.sameValue(0, 1));
}

TEST_F(PatTypeTest, UnifyFuncCreatesFrame) {
  // X0 = f(X1).
  FunctorId F = Syms.functor("f", 1);
  TSub S = TSub::top(Ctx, 2);
  S.unifyFunc(Ctx, 0, F, {1});
  ASSERT_TRUE(S.slotFrame(0).has_value());
  EXPECT_EQ(*S.slotFrame(0), F);
  EXPECT_TRUE(valueEquals(S.slotValue(Ctx, 0), parse("T ::= f(Any).")));
}

TEST_F(PatTypeTest, ConflictingFunctorsFail) {
  TSub S = TSub::top(Ctx, 1);
  S.unifyFunc(Ctx, 0, Syms.functor("a", 0), {});
  S.unifyFunc(Ctx, 0, Syms.functor("b", 0), {});
  EXPECT_TRUE(S.isBottom());
}

TEST_F(PatTypeTest, RefineSlotMeets) {
  TSub S = TSub::top(Ctx, 1);
  S.refineSlot(Ctx, 0, TypeGraph::makeInt());
  EXPECT_TRUE(valueEquals(S.slotValue(Ctx, 0), TypeGraph::makeInt()));
  // Now binding to a non-numeric functor must fail.
  S.unifyFunc(Ctx, 0, Syms.functor("foo", 0), {});
  EXPECT_TRUE(S.isBottom());
}

TEST_F(PatTypeTest, IntLiteralBelowInt) {
  TSub S = TSub::top(Ctx, 1);
  S.refineSlot(Ctx, 0, TypeGraph::makeInt());
  S.unifyFunc(Ctx, 0, Syms.functor("3", 0), {});
  EXPECT_FALSE(S.isBottom());
}

TEST_F(PatTypeTest, LeafTypeSplitsThroughFrame) {
  // X0 has type [] | cons(Int, list-of-int); X0 = cons(X1, X2) gives
  // X1 Int and X2 list-of-int.
  TSub S = TSub::top(Ctx, 3);
  S.refineSlot(Ctx, 0, parse("T ::= [] | cons(Int,T)."));
  S.unifyFunc(Ctx, 0, Syms.consFunctor(), {1, 2});
  ASSERT_FALSE(S.isBottom());
  EXPECT_TRUE(valueEquals(S.slotValue(Ctx, 1), TypeGraph::makeInt()));
  EXPECT_TRUE(
      valueEquals(S.slotValue(Ctx, 2), parse("T ::= [] | cons(Int,T).")));
}

TEST_F(PatTypeTest, LeafWithoutFunctorFails) {
  TSub S = TSub::top(Ctx, 3);
  S.refineSlot(Ctx, 0, parse("T ::= [].\n"));
  S.unifyFunc(Ctx, 0, Syms.consFunctor(), {1, 2});
  EXPECT_TRUE(S.isBottom());
}

TEST_F(PatTypeTest, ProjectPreservesSharingAndFrames) {
  FunctorId F = Syms.functor("f", 2);
  TSub S = TSub::top(Ctx, 4);
  S.unifyFunc(Ctx, 0, F, {1, 2});
  S.unifyVars(Ctx, 2, 3);
  TSub P = S.project(Ctx, {0, 3});
  EXPECT_EQ(P.numSlots(), 2u);
  ASSERT_TRUE(P.slotFrame(0).has_value());
  // Slot 1 is f's second argument: shared inside the projection.
  EXPECT_FALSE(P.isBottom());
}

TEST_F(PatTypeTest, ApplyCallResultTransfersStructure) {
  // Caller: q(X0) with X0 unconstrained. Callee output: slot0 = [].
  TSub Caller = TSub::top(Ctx, 1);
  TSub Out = TSub::top(Ctx, 1);
  Out.unifyFunc(Ctx, 0, Syms.nilFunctor(), {});
  Caller.applyCallResult(Ctx, {0}, Out);
  ASSERT_TRUE(Caller.slotFrame(0).has_value());
  EXPECT_EQ(*Caller.slotFrame(0), Syms.nilFunctor());
}

TEST_F(PatTypeTest, ApplyCallResultTransfersSameValue) {
  // Callee output equates its two arguments; caller must unify them.
  TSub Caller = TSub::top(Ctx, 2);
  Caller.refineSlot(Ctx, 0, TypeGraph::makeInt());
  TSub Out = TSub::top(Ctx, 2);
  Out.unifyVars(Ctx, 0, 1);
  Caller.applyCallResult(Ctx, {0, 1}, Out);
  EXPECT_TRUE(Caller.sameValue(0, 1));
  // The Int refinement propagates to the other argument.
  EXPECT_TRUE(valueEquals(Caller.slotValue(Ctx, 1), TypeGraph::makeInt()));
}

TEST_F(PatTypeTest, ApplyCallResultConflictIsBottom) {
  TSub Caller = TSub::top(Ctx, 1);
  Caller.unifyFunc(Ctx, 0, Syms.functor("a", 0), {});
  TSub Out = TSub::top(Ctx, 1);
  Out.unifyFunc(Ctx, 0, Syms.functor("b", 0), {});
  Caller.applyCallResult(Ctx, {0}, Out);
  EXPECT_TRUE(Caller.isBottom());
}

TEST_F(PatTypeTest, JoinSameFrameKeepsFrame) {
  FunctorId F = Syms.functor("f", 1);
  TSub A = TSub::top(Ctx, 2);
  A.unifyFunc(Ctx, 0, F, {1});
  A.refineSlot(Ctx, 1, parse("T ::= a."));
  TSub B = TSub::top(Ctx, 2);
  B.unifyFunc(Ctx, 0, F, {1});
  B.refineSlot(Ctx, 1, parse("T ::= b."));
  TSub J = TSub::join(Ctx, A, B);
  ASSERT_TRUE(J.slotFrame(0).has_value());
  EXPECT_TRUE(valueEquals(J.slotValue(Ctx, 1), parse("T ::= a | b.")));
}

TEST_F(PatTypeTest, JoinDifferentFramesDropsToTypeGraph) {
  // Section 5: "When computing an upper-bound of two terms with
  // different functors, the indices are removed from Pat and replaced
  // by an equivalent type graph in Type."
  TSub A = TSub::top(Ctx, 1);
  A.unifyFunc(Ctx, 0, Syms.nilFunctor(), {});
  // B: slot0 = cons(slot1, slot2), projected onto slot0.
  TSub B = TSub::top(Ctx, 3);
  B.unifyFunc(Ctx, 0, Syms.consFunctor(), {1, 2});
  TSub BProj = B.project(Ctx, {0});
  TSub J = TSub::join(Ctx, A, BProj);
  EXPECT_FALSE(J.slotFrame(0).has_value());
  EXPECT_TRUE(valueEquals(J.slotValue(Ctx, 0),
                          parse("T ::= [] | cons(Any,Any).")));
}

TEST_F(PatTypeTest, JoinWithBottomIsIdentity) {
  TSub A = TSub::top(Ctx, 1);
  A.unifyFunc(Ctx, 0, Syms.nilFunctor(), {});
  TSub B = TSub::bottom(1);
  TSub J = TSub::join(Ctx, A, B);
  EXPECT_TRUE(TSub::equal(Ctx, J, A));
}

TEST_F(PatTypeTest, LeqBasics) {
  TSub Top = TSub::top(Ctx, 1);
  TSub Bot = TSub::bottom(1);
  TSub Nil = TSub::top(Ctx, 1);
  Nil.unifyFunc(Ctx, 0, Syms.nilFunctor(), {});
  EXPECT_TRUE(TSub::leq(Ctx, Bot, Nil));
  EXPECT_TRUE(TSub::leq(Ctx, Nil, Top));
  EXPECT_FALSE(TSub::leq(Ctx, Top, Nil));
  EXPECT_TRUE(TSub::leq(Ctx, Nil, Nil));
}

TEST_F(PatTypeTest, LeqRespectsSameValue) {
  TSub Shared = TSub::top(Ctx, 2);
  Shared.unifyVars(Ctx, 0, 1);
  TSub Unshared = TSub::top(Ctx, 2);
  // Shared <= Unshared (equality is a stronger constraint)...
  EXPECT_TRUE(TSub::leq(Ctx, Shared, Unshared));
  // ...but not the converse.
  EXPECT_FALSE(TSub::leq(Ctx, Unshared, Shared));
}

TEST_F(PatTypeTest, WidenUsesLeafWidening) {
  // Lists growing by one level must widen to the full list type when
  // frames clash (cons vs deeper cons chains collapse to leaves).
  TSub Old = TSub::top(Ctx, 1);
  Old.refineSlot(Ctx, 0, parse("T ::= [] | cons(Any,T1).\nT1 ::= []."));
  TSub New = TSub::top(Ctx, 1);
  New.refineSlot(Ctx, 0, parse("T ::= [] | cons(Any,T1).\n"
                               "T1 ::= [] | cons(Any,T2).\nT2 ::= []."));
  TSub W = TSub::widen(Ctx, Old, New);
  EXPECT_TRUE(valueEquals(W.slotValue(Ctx, 0),
                          parse("T ::= [] | cons(Any,T).")));
}

TEST_F(PatTypeTest, RationalUnificationTerminates) {
  // X = f(Y), X = Y creates a rational structure; operations must
  // terminate and stay sound.
  FunctorId F = Syms.functor("f", 1);
  TSub S = TSub::top(Ctx, 2);
  S.unifyFunc(Ctx, 0, F, {1});
  S.unifyVars(Ctx, 0, 1);
  ASSERT_FALSE(S.isBottom());
  TypeGraph V = S.slotValue(Ctx, 0);
  // The value is an over-approximation containing f(...).
  EXPECT_TRUE(graphIncludes(V, parse("T ::= f(Any)."), Syms));
}

/// Seeded property over random unify / project / applyCallResult
/// sequences. Builds \p PoolSize two-slot substitutions and checks, for
/// every ordered pair (A, B): equal(A, B) implies equal canonical keys,
/// A <= join(A, B), and join(A, B) <= widen(A, B) (the leaf widenings of
/// both domains are upper bounds of their inputs). Returns how many
/// pairs were equal, so a caller can insist the first check fired.
template <typename Leaf>
unsigned checkRandomSequences(const typename Leaf::Context &C,
                              SymbolTable &Syms,
                              const std::vector<typename Leaf::Value> &Vals,
                              uint32_t Seed, unsigned PoolSize) {
  using Sub = PatSub<Leaf>;
  // Structured functors are drawn more often than constants.
  FunctorId F = Syms.functor("f", 2), G = Syms.functor("g", 1);
  FunctorId Atom = Syms.functor("a", 0);
  FunctorId Cons = Syms.consFunctor(), Nil = Syms.nilFunctor();
  const std::vector<FunctorId> Fns = {F, F, G, Cons, Cons, Atom, Nil};
  const uint32_t NumFns = static_cast<uint32_t>(Fns.size());
  const uint32_t NumVals = static_cast<uint32_t>(Vals.size());
  std::mt19937 Rng(Seed);
  auto Pick = [&](uint32_t N) {
    return std::uniform_int_distribution<uint32_t>(0, N - 1)(Rng);
  };
  // Applies Steps random operations to S, which has one slot per HeadFn
  // entry. An operation may only relate slots of pairwise distinct components
  // (slots joined by an earlier operation share a component), so the
  // generated terms stay acyclic: refineWithValue's depth budget does
  // not bound its fan-out, and a rational term like X = f(X, X) would
  // send it through 2^64 refinements (the cycle case has its own test).
  // HeadFn[i] is the functor frames on slot i mostly use, so frames
  // survive to the projection more often than they clash into bottom.
  auto Mutate = [&](auto &Self, Sub &S, const std::vector<FunctorId> &HeadFn,
                    unsigned Steps, unsigned CallDepth) -> void {
    uint32_t Slots = static_cast<uint32_t>(HeadFn.size());
    std::vector<uint32_t> Comp(Slots);
    for (uint32_t I = 0; I != Slots; ++I)
      Comp[I] = I;
    auto Root = [&](uint32_t I) {
      while (Comp[I] != I)
        I = Comp[I];
      return I;
    };
    // Joins the components of Rel if they are pairwise distinct.
    auto Relate = [&](const std::vector<uint32_t> &Rel) {
      for (size_t I = 0; I != Rel.size(); ++I)
        for (size_t J = 0; J != I; ++J)
          if (Root(Rel[I]) == Root(Rel[J]))
            return false;
      for (uint32_t X : Rel)
        Comp[Root(X)] = Root(Rel[0]);
      return true;
    };
    for (unsigned Step = 0; Step != Steps && !S.isBottom(); ++Step) {
      switch (Pick(CallDepth ? 4 : 3)) {
      case 0: {
        uint32_t A = Pick(Slots), B = Pick(Slots);
        if (Relate({A, B}))
          S.unifyVars(C, A, B);
        break;
      }
      case 1: {
        // Mostly the head slot's own functor; sometimes another one.
        uint32_t Head = Pick(3);
        FunctorId Fn = Pick(10) ? HeadFn[Head] : Fns[Pick(NumFns)];
        std::vector<uint32_t> Rel = {Head};
        for (uint32_t K = 0; K != Syms.functorArity(Fn); ++K)
          Rel.push_back(Pick(Slots));
        if (Relate(Rel))
          S.unifyFunc(C, Rel[0], Fn,
                      std::vector<uint32_t>(Rel.begin() + 1, Rel.end()));
        break;
      }
      case 2:
        S.refineSlot(C, Pick(Slots), Vals[Pick(NumVals)]);
        break;
      default: {
        // A call p(Xi, Xj) whose callee answer is itself random.
        uint32_t A = Pick(Slots), B = Pick(Slots);
        if (!Relate({A, B}))
          break;
        // The callee's answer frames its two arguments as the caller
        // would.
        Sub Out = Sub::top(C, 4);
        Self(Self, Out, {HeadFn[A], HeadFn[B], Fns[Pick(NumFns)],
                         Fns[Pick(NumFns)]},
             1 + Pick(5), CallDepth - 1);
        if (!Out.isBottom()) // a failing callee would only add bottoms
          S.applyCallResult(C, {A, B}, Out.project(C, {0, 1}));
        break;
      }
      }
    }
  };
  // Frames are imposed on slots 0-2 and the projection keeps two of
  // them. A third of the entries come with join(P, P), an equal
  // substitution whose leaf values were recomputed by the leaf join.
  std::vector<Sub> Pool;
  while (Pool.size() < PoolSize) {
    std::vector<FunctorId> HeadFn(8);
    for (FunctorId &Fn : HeadFn)
      Fn = Fns[Pick(NumFns)];
    Sub S = Sub::top(C, 8);
    Mutate(Mutate, S, HeadFn, 2 + Pick(10), 1);
    Sub P = S.project(C, {Pick(3), Pick(3)});
    if (Pick(3) == 0)
      Pool.push_back(Sub::join(C, P, P));
    Pool.push_back(std::move(P));
  }
  unsigned EqualPairs = 0;
  for (const Sub &A : Pool) {
    for (const Sub &B : Pool) {
      if (Sub::equal(C, A, B)) {
        ++EqualPairs;
        EXPECT_EQ(A.canonKey(C), B.canonKey(C))
            << "equal substitutions, different keys:\n"
            << A.print(C) << "vs\n" << B.print(C);
      }
      Sub J = Sub::join(C, A, B);
      EXPECT_TRUE(Sub::leq(C, A, J))
          << "A not below join(A, B):\n" << A.print(C) << "B:\n"
          << B.print(C) << "join:\n" << J.print(C);
      Sub W = Sub::widen(C, A, B);
      EXPECT_TRUE(Sub::leq(C, J, W))
          << "join not below widen:\n" << J.print(C) << "widen:\n"
          << W.print(C);
    }
  }
  return EqualPairs;
}

TEST_F(PatTypeTest, RandomSequencesKeepKeyJoinAndWidenLaws) {
  std::vector<TypeGraph> Vals = {
      TypeGraph::makeInt(), parse("T ::= [] | cons(Any,T)."),
      parse("T ::= a | f(Any,b)."),
      parse("T ::= Int | a | [] | g(T) | f(T,T) | cons(T,T).")};
  unsigned Equal = 0;
  for (uint32_t Seed : {1u, 2u, 3u})
    Equal += checkRandomSequences<TypeLeaf>(Ctx, Syms, Vals, Seed, 24);
  EXPECT_GT(Equal, 3u * 24u); // more than the reflexive pairs
}

//===----------------------------------------------------------------------===//
// The per-thread scratch (pat/PatScratch.h): nested leases, pair tables
// that outgrow their first sizing, and rational cycles.
//===----------------------------------------------------------------------===//

TEST_F(PatTypeTest, LeqFoldsFramesWhileItsMapIsLeased) {
  // A: X0 = f(X2, X1), X1 = g(X2), X2 : Int. B: X0 a leaf. leq(A, B)
  // holds B's map while folding A's frames (termValue, one argument
  // buffer per level: f's buffer already holds Int when g is folded).
  FunctorId F = Syms.functor("f", 2);
  FunctorId G = Syms.functor("g", 1);
  TSub A = TSub::top(Ctx, 3);
  A.unifyFunc(Ctx, 0, F, {2, 1});
  A.unifyFunc(Ctx, 1, G, {2});
  A.refineSlot(Ctx, 2, TypeGraph::makeInt());
  A = A.project(Ctx, {0});
  TSub B = TSub::top(Ctx, 1);
  B.refineSlot(Ctx, 0, parse("T ::= a | f(Int,U).\nU ::= g(Int)."));
  EXPECT_TRUE(TSub::leq(Ctx, A, B));
  EXPECT_FALSE(TSub::leq(Ctx, B, A)); // B has a leaf where A has a frame
  TSub Narrow = TSub::top(Ctx, 1);
  Narrow.refineSlot(Ctx, 0, parse("T ::= f(Int,U).\nU ::= g(b)."));
  EXPECT_FALSE(TSub::leq(Ctx, A, Narrow));
  // The scratch is reused, not left half-leased: a second round agrees.
  EXPECT_TRUE(TSub::leq(Ctx, A, B));
  EXPECT_TRUE(valueEquals(A.slotValue(Ctx, 0), parse("T ::= f(Int,U).\n"
                                                     "U ::= g(Int).")));
}

TEST_F(PatTypeTest, JoinFoldsClashingFramesUnderAMatchingFrame) {
  // Both sides agree on h/1 at the root, so the pair memo is live while
  // the clash below folds f(Int, g(Int)) and k(b) through termValue.
  FunctorId H = Syms.functor("h", 1);
  FunctorId F = Syms.functor("f", 2);
  FunctorId G = Syms.functor("g", 1);
  FunctorId K = Syms.functor("k", 1);
  TSub A = TSub::top(Ctx, 4);
  A.unifyFunc(Ctx, 0, H, {1});
  A.unifyFunc(Ctx, 1, F, {3, 2});
  A.unifyFunc(Ctx, 2, G, {3});
  A.refineSlot(Ctx, 3, TypeGraph::makeInt());
  A = A.project(Ctx, {0, 3});
  TSub B = TSub::top(Ctx, 3);
  B.unifyFunc(Ctx, 0, H, {1});
  B.unifyFunc(Ctx, 1, K, {2});
  B.refineSlot(Ctx, 2, parse("T ::= b."));
  B = B.project(Ctx, {0, 2});
  for (int Round = 0; Round != 2; ++Round) {
    TSub J = TSub::join(Ctx, A, B);
    ASSERT_TRUE(J.slotFrame(0).has_value());
    EXPECT_EQ(*J.slotFrame(0), H);
    EXPECT_TRUE(valueEquals(
        J.slotValue(Ctx, 0),
        parse("T ::= h(U).\nU ::= f(Int,V) | k(b).\nV ::= g(Int).")));
    EXPECT_TRUE(valueEquals(J.slotValue(Ctx, 1), parse("T ::= Int | b.")));
    EXPECT_TRUE(TSub::leq(Ctx, A, J));
    EXPECT_TRUE(TSub::leq(Ctx, B, J));
    EXPECT_EQ(J.canonKey(Ctx), TSub::join(Ctx, A, B).canonKey(Ctx));
  }
}

TEST_F(PatTypeTest, JoinAndWidenOfOperandsTenTimesApartInSize) {
  // A: 40 slots sharing one subterm (1 subterm after projection); B: 40
  // independent slots, each a cons cell (120 subterms). The pair memo is
  // first sized for the smaller operand and must grow to 40 pairs.
  constexpr uint32_t N = 40;
  std::vector<uint32_t> All(N);
  for (uint32_t I = 0; I != N; ++I)
    All[I] = I;
  TSub A = TSub::top(Ctx, N);
  for (uint32_t I = 1; I != N; ++I)
    A.unifyVars(Ctx, 0, I);
  A = A.project(Ctx, All);
  TSub B = TSub::top(Ctx, 3 * N);
  for (uint32_t I = 0; I != N; ++I)
    B.unifyFunc(Ctx, I, Syms.consFunctor(), {N + 2 * I, N + 2 * I + 1});
  B = B.project(Ctx, All);
  for (TSub R : {TSub::join(Ctx, A, B), TSub::widen(Ctx, A, B),
                 TSub::join(Ctx, B, A), TSub::widen(Ctx, B, A)}) {
    ASSERT_EQ(R.numSlots(), N);
    EXPECT_FALSE(R.sameValue(0, 1)); // B does not share the slots
    EXPECT_FALSE(R.slotFrame(N - 1).has_value());
    EXPECT_TRUE(TSub::leq(Ctx, A, R));
    EXPECT_TRUE(TSub::leq(Ctx, B, R));
  }
  EXPECT_TRUE(TSub::equal(Ctx, TSub::join(Ctx, A, B), TSub::join(Ctx, B, A)));

  // Matching frames of very different depth: cons(X, <30-cell list>)
  // against cons(Y, []). Only the root frame survives.
  TSub Long = TSub::top(Ctx, 62);
  for (uint32_t I = 0; I != 30; ++I)
    Long.unifyFunc(Ctx, 2 * I, Syms.consFunctor(), {2 * I + 1, 2 * I + 2});
  Long.unifyFunc(Ctx, 60, Syms.nilFunctor(), {});
  Long = Long.project(Ctx, {0});
  TSub Short = TSub::top(Ctx, 3);
  Short.unifyFunc(Ctx, 0, Syms.consFunctor(), {1, 2});
  Short.unifyFunc(Ctx, 2, Syms.nilFunctor(), {});
  Short = Short.project(Ctx, {0});
  TSub J = TSub::join(Ctx, Long, Short);
  TSub W = TSub::widen(Ctx, Short, Long);
  ASSERT_EQ(J.slotFrame(0), Syms.consFunctor());
  EXPECT_TRUE(TSub::leq(Ctx, Long, J));
  EXPECT_TRUE(TSub::leq(Ctx, Short, J));
  EXPECT_TRUE(TSub::leq(Ctx, J, W));
  for (const TSub *In : {&Long, &Short})
    EXPECT_TRUE(graphIncludes(J.slotValue(Ctx, 0), In->slotValue(Ctx, 0),
                              Syms));
}

TEST_F(PatTypeTest, RationalCycleThroughKeyValueJoinAndLeq) {
  // X = f(Y), X = Y: the frame's argument is the frame itself.
  FunctorId F = Syms.functor("f", 1);
  TSub S = TSub::top(Ctx, 2);
  S.unifyFunc(Ctx, 0, F, {1});
  S.unifyVars(Ctx, 0, 1);
  ASSERT_FALSE(S.isBottom());
  TSub P = S.project(Ctx, {0, 1});
  EXPECT_TRUE(P.sameValue(0, 1));
  EXPECT_TRUE(TSub::equal(Ctx, S, P));
  EXPECT_EQ(S.canonKey(Ctx), P.canonKey(Ctx));
  TypeGraph V = P.slotValue(Ctx, 1);
  EXPECT_TRUE(graphIncludes(V, parse("T ::= f(Any)."), Syms));

  // join with itself keeps the cycle (the pair memo closes it).
  TSub JS = TSub::join(Ctx, S, P);
  EXPECT_TRUE(JS.sameValue(0, 1));
  EXPECT_EQ(JS.slotFrame(0), F);
  EXPECT_TRUE(TSub::equal(Ctx, JS, S));
  EXPECT_EQ(JS.canonKey(Ctx), S.canonKey(Ctx));

  // join with an acyclic f(_): the argument pair clashes (frame against
  // leaf) and folds the cycle, which is cut with Any.
  TSub T = TSub::top(Ctx, 2);
  T.unifyFunc(Ctx, 0, F, {1});
  TSub J = TSub::join(Ctx, S, T);
  EXPECT_EQ(J.slotFrame(0), F);
  EXPECT_FALSE(J.sameValue(0, 1));
  EXPECT_TRUE(TSub::leq(Ctx, S, J));
  EXPECT_TRUE(TSub::leq(Ctx, T, J));
  EXPECT_FALSE(TSub::leq(Ctx, J, S));
  EXPECT_NE(J.canonKey(Ctx), S.canonKey(Ctx));
}

//===----------------------------------------------------------------------===//
// The principal-functor instantiation.
//===----------------------------------------------------------------------===//

class PatPFTest : public ::testing::Test {
protected:
  PatPFTest() : Ctx{Syms} {}
  SymbolTable Syms;
  PFLeaf::Context Ctx;
};

using PSub = PatSub<PFLeaf>;

TEST_F(PatPFTest, FramesStillWork) {
  PSub S = PSub::top(Ctx, 2);
  S.unifyFunc(Ctx, 0, Syms.functor("f", 1), {1});
  ASSERT_TRUE(S.slotFrame(0).has_value());
  // Conflicting functor fails even without leaf information.
  S.unifyFunc(Ctx, 0, Syms.functor("g", 1), {1});
  EXPECT_TRUE(S.isBottom());
}

TEST_F(PatPFTest, JoinLosesClashingFrames) {
  PSub A = PSub::top(Ctx, 1);
  A.unifyFunc(Ctx, 0, Syms.functor("a", 0), {});
  PSub B = PSub::top(Ctx, 1);
  B.unifyFunc(Ctx, 0, Syms.functor("b", 0), {});
  PSub J = PSub::join(Ctx, A, B);
  // The one-point leaf cannot represent the disjunction.
  EXPECT_FALSE(J.slotFrame(0).has_value());
  EXPECT_TRUE(PSub::leq(Ctx, A, J));
  EXPECT_TRUE(PSub::leq(Ctx, B, J));
}

TEST_F(PatPFTest, SameValueStillTracked) {
  PSub S = PSub::top(Ctx, 2);
  S.unifyVars(Ctx, 0, 1);
  EXPECT_TRUE(S.sameValue(0, 1));
}

TEST_F(PatPFTest, LeafRestrictionAlwaysSucceeds) {
  PSub S = PSub::top(Ctx, 3);
  S.unifyFunc(Ctx, 0, Syms.consFunctor(), {1, 2});
  EXPECT_FALSE(S.isBottom());
}

TEST_F(PatPFTest, RandomSequencesKeepKeyJoinAndWidenLaws) {
  std::vector<PFLeaf::Value> Vals = {PFLeaf::Value{}};
  unsigned Equal = 0;
  for (uint32_t Seed : {1u, 2u, 3u})
    Equal += checkRandomSequences<PFLeaf>(Ctx, Syms, Vals, Seed, 24);
  EXPECT_GT(Equal, 3u * 24u); // more than the reflexive pairs
}

} // namespace
