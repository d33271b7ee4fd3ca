//===- tests/WideningTest.cpp - Section 7 widening operator tests ---------==//
///
/// \file
/// Golden tests for the widening operator on the paper's own worked
/// examples (append/3 in Section 7.1, the first arithmetic program in
/// Figure 6), a pin of the transform sequence each Section 9 program
/// runs, plus property sweeps for the widening laws: the result is an
/// upper bound of both arguments and iterating V is stationary.
///
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"
#include "programs/Benchmarks.h"
#include "typegraph/GrammarParser.h"
#include "typegraph/GrammarPrinter.h"
#include "typegraph/GraphOps.h"
#include "typegraph/Widening.h"

#include <gtest/gtest.h>

#include <random>

using namespace gaia;

namespace {

class WideningTest : public ::testing::Test {
protected:
  TypeGraph parse(const char *Text) {
    std::string Err;
    std::optional<TypeGraph> G = parseGrammar(Text, Syms, &Err);
    EXPECT_TRUE(G.has_value()) << Err;
    return G ? *G : TypeGraph::makeBottom();
  }

  SymbolTable Syms;
};

TEST_F(WideningTest, NoWideningWhenNewIncluded) {
  TypeGraph Old = TypeGraph::makeAnyList(Syms);
  TypeGraph New = parse("T ::= [].");
  TypeGraph W = graphWiden(Old, New, Syms);
  EXPECT_TRUE(graphEquals(W, Old, Syms));
}

TEST_F(WideningTest, AppendExampleIntroducesListCycle) {
  // Section 7.1: the second iteration of append/3 produced To; the union
  // of the clause results of the third iteration gives Tnew. The widening
  // must produce the full list type by cycle introduction.
  TypeGraph Old = parse("T ::= [] | cons(Any,T1).\n"
                        "T1 ::= [].");
  TypeGraph New = parse("T ::= [] | cons(Any,T1).\n"
                        "T1 ::= [] | cons(Any,T2).\n"
                        "T2 ::= [].");
  WideningStats Stats;
  TypeGraph W = graphWiden(Old, New, Syms, WideningOptions(), &Stats);
  TypeGraph Expect = parse("T ::= [] | cons(Any,T).");
  EXPECT_TRUE(graphEquals(W, Expect, Syms)) << printGrammar(W, Syms);
  EXPECT_GE(Stats.CycleIntroductions, 1u);
}

TEST_F(WideningTest, Figure6ArithmeticExample) {
  // Figure 6: widening for the first arithmetic program. The widening of
  // To with Tn must produce the optimal Tr without merging the
  // definitions of T, T1 and T2.
  TypeGraph Old = parse("To ::= 0 | +(Z,T1).\n"
                        "Z ::= 0.\n"
                        "T1 ::= 1 | *(T1,T2).\n"
                        "T2 ::= cst(Any) | par(To) | var(Any).");
  TypeGraph New = parse("Tn ::= 0 | +(T3,T6).\n"
                        "T3 ::= 0 | +(Z,T4).\n"
                        "Z ::= 0.\n"
                        "T4 ::= 1 | *(T4,T5).\n"
                        "T5 ::= cst(Any) | par(Tn) | var(Any).\n"
                        "T6 ::= 1 | *(T6,T7).\n"
                        "T7 ::= cst(Any) | par(T3) | var(Any).");
  TypeGraph W = graphWiden(Old, New, Syms);
  TypeGraph Expect = parse("Tr ::= 0 | +(Tr,T1).\n"
                           "T1 ::= 1 | *(T1,T2).\n"
                           "T2 ::= cst(Any) | par(Tr) | var(Any).");
  EXPECT_TRUE(graphEquals(W, Expect, Syms)) << printGrammar(W, Syms);
}

TEST_F(WideningTest, BasicGrowthIsAllowed) {
  // Section 7.1: the second iteration of basic/2 encounters a clash with
  // no suitable ancestor; the widening must let the graph grow to Tn
  // ("letting the graph grow in this case is of great importance to
  // recover the structure of the type in its entirety").
  TypeGraph Old = parse("T ::= cst(Any) | var(Any).");
  TypeGraph New = parse("T ::= cst(Any) | par(Z) | var(Any).\n"
                        "Z ::= 0.");
  TypeGraph W = graphWiden(Old, New, Syms);
  EXPECT_TRUE(graphEquals(W, New, Syms)) << printGrammar(W, Syms);
}

TEST_F(WideningTest, GenSuccExampleGrowsBothStructures) {
  // The gen/succ program: lists and integers grow together; the widening
  // must infer both recursive structures. We simulate two fixpoint steps.
  TypeGraph Old = parse("T ::= [] | cons(Z,T1).\n"
                        "Z ::= 0.\n"
                        "T1 ::= [].");
  TypeGraph New = parse("T ::= [] | cons(Z,T1).\n"
                        "Z ::= 0.\n"
                        "T1 ::= [] | cons(S,T2).\n"
                        "S ::= 0 | s(Z2).\n"
                        "Z2 ::= 0.\n"
                        "T2 ::= [].");
  TypeGraph W1 = graphWiden(Old, New, Syms);
  // Whatever the intermediate shape, one more widening with the full
  // recursive pattern must reach the paper's fixpoint:
  TypeGraph Full = parse("T ::= [] | cons(T1,T).\n"
                         "T1 ::= 0 | s(T1).");
  TypeGraph W2 = graphWiden(W1, Full, Syms);
  EXPECT_TRUE(graphIncludes(W2, Full, Syms)) << printGrammar(W2, Syms);
  // And it must not degrade to Any.
  EXPECT_FALSE(graphEquals(W2, TypeGraph::makeAny(), Syms));
  EXPECT_TRUE(graphIncludes(TypeGraph::makeAnyList(Syms), W2, Syms))
      << printGrammar(W2, Syms);
}

TEST_F(WideningTest, PreservesNestedStringType) {
  // Abstraction of the tokenizer property: the widening preserves the
  // string(T2) component because cons/[] never subsets the token pf-set.
  TypeGraph Old = parse("T ::= [] | cons(T1,T2).\n"
                        "T1 ::= atom(Any) | string(S).\n"
                        "S ::= [] | cons(Any,S).\n"
                        "T2 ::= [].");
  TypeGraph New = parse("T ::= [] | cons(T1,T2).\n"
                        "T1 ::= atom(Any) | string(S).\n"
                        "S ::= [] | cons(Any,S).\n"
                        "T2 ::= [] | cons(T3,T4).\n"
                        "T3 ::= atom(Any) | string(S2).\n"
                        "S2 ::= [] | cons(Any,S2).\n"
                        "T4 ::= [].");
  TypeGraph W = graphWiden(Old, New, Syms);
  TypeGraph Expect = parse("T ::= [] | cons(T1,T).\n"
                           "T1 ::= atom(Any) | string(S).\n"
                           "S ::= [] | cons(Any,S).");
  EXPECT_TRUE(graphEquals(W, Expect, Syms)) << printGrammar(W, Syms);
}

TEST_F(WideningTest, ExhaustedTransformBudgetCollapsesToAny) {
  // Regression for the silent-non-convergence bug: the budget guard used
  // to be assert(false), which compiles away under NDEBUG and let
  // release builds return a possibly ever-growing graph — breaking the
  // finiteness of the widening chain the engine's termination rests on.
  // With a zero budget the first transformation must trip the explicit
  // fallback: a sound collapse to Any, with the exhaustion counted.
  TypeGraph Old = parse("T ::= [] | cons(Any,T1).\n"
                        "T1 ::= [].");
  TypeGraph New = parse("T ::= [] | cons(Any,T1).\n"
                        "T1 ::= [] | cons(Any,T2).\n"
                        "T2 ::= [].");
  WideningOptions Opts;
  Opts.MaxTransforms = 0;
  WideningStats Stats;
  TypeGraph W = graphWiden(Old, New, Syms, Opts, &Stats);
  EXPECT_EQ(Stats.BudgetExhaustions, 1u);
  EXPECT_TRUE(graphEquals(W, TypeGraph::makeAny(), Syms))
      << printGrammar(W, Syms);
  // Still an upper bound of both inputs.
  EXPECT_TRUE(graphIncludes(W, Old, Syms));
  EXPECT_TRUE(graphIncludes(W, New, Syms));
}

TEST_F(WideningTest, DefaultTransformBudgetNeverFires) {
  TypeGraph Old = parse("T ::= [] | cons(Any,T1).\n"
                        "T1 ::= [].");
  TypeGraph New = parse("T ::= [] | cons(Any,T1).\n"
                        "T1 ::= [] | cons(Any,T2).\n"
                        "T2 ::= [].");
  WideningStats Stats;
  graphWiden(Old, New, Syms, WideningOptions(), &Stats);
  EXPECT_EQ(Stats.BudgetExhaustions, 0u);
}

TEST_F(WideningTest, GraftReplaceRedirectsAllIncomingEdges) {
  // Regression for the stale-subtree bug: mid-widening graphs can hold
  // several incoming edges on one or-vertex (the cycle introduction rule
  // creates back edges). graftReplace used to redirect only the
  // BFS-tree-parent edge, leaving the other parents pointing at the
  // replaced subtree. Build the sharing directly: f/1 and g/1 both point
  // at the same or-vertex.
  FunctorId FF = Syms.functor("f", 1);
  FunctorId GF = Syms.functor("g", 1);
  FunctorId AF = Syms.functor("a", 0);
  TypeGraph G;
  NodeId Shared = G.addOr({G.addFunc(AF, {})});
  NodeId F = G.addFunc(FF, {Shared});
  NodeId Gv = G.addFunc(GF, {Shared});
  G.setRoot(G.addOr({F, Gv}));

  TypeGraph Rep = parse("T ::= b.");
  TypeGraph Out =
      detail::graftReplace(G, Shared, Rep, G.computeTopology());
  // Both f and g must now see the replacement: f(b) | g(b), with no
  // residue of the old a-subtree anywhere.
  TypeGraph Want = parse("T ::= f(B) | g(B2).\nB ::= b.\nB2 ::= b.");
  EXPECT_TRUE(graphEquals(normalizeGraph(Out, Syms), Want, Syms))
      << printGrammar(normalizeGraph(Out, Syms), Syms);
}

TEST_F(WideningTest, WidenFromBottom) {
  TypeGraph Bot = TypeGraph::makeBottom();
  TypeGraph List = TypeGraph::makeAnyList(Syms);
  EXPECT_TRUE(graphEquals(graphWiden(Bot, List, Syms), List, Syms));
  EXPECT_TRUE(graphEquals(graphWiden(List, Bot, Syms), List, Syms));
}

/// The Section 9 transform sequence, pinned per program at or-cap 0:
/// correspondence walks, widening clashes found, and how often each
/// rule fired. Any change to the clash walk or to the rule order that
/// alters what the widening does on a real analysis moves one of these
/// counts, even where the final types happen to agree.
TEST(WideningSection9Test, TransformCountsArePinnedAtOrCap0) {
  struct Expected {
    const char *Key;
    uint64_t ClashWalks, Clashes, CycleIntroductions, Replacements;
  };
  const Expected Table[] = {
      {"KA", 50, 52, 8, 0},
      {"QU", 9, 7, 2, 0},
      {"PR", 72, 74, 7, 1},
      {"PE", 9, 6, 2, 0},
      {"CS", 28, 26, 2, 0},
      {"DS", 58, 55, 3, 0},
      {"PG", 81, 128, 8, 0},
      {"RE", 81, 86, 29, 0},
      {"BR", 109, 124, 15, 5},
      {"PL", 48, 78, 8, 2},
  };
  ASSERT_EQ(table123Suite().size(), std::size(Table));
  AnalyzerOptions Opts;
  Opts.OrCap = 0;
  for (const Expected &E : Table) {
    const BenchmarkProgram *B = findBenchmark(E.Key);
    ASSERT_NE(B, nullptr) << E.Key;
    AnalysisResult R = analyzeProgram(B->Source, B->GoalSpec, Opts);
    ASSERT_TRUE(R.Ok) << E.Key << ": " << R.Error;
    EXPECT_EQ(R.WStats.ClashWalks, E.ClashWalks) << E.Key;
    EXPECT_EQ(R.WStats.Clashes, E.Clashes) << E.Key;
    EXPECT_EQ(R.WStats.CycleIntroductions, E.CycleIntroductions) << E.Key;
    EXPECT_EQ(R.WStats.Replacements, E.Replacements) << E.Key;
    EXPECT_EQ(R.WStats.BudgetExhaustions, 0u) << E.Key;
  }
}

//===----------------------------------------------------------------------===//
// Property sweeps.
//===----------------------------------------------------------------------===//

/// Generates the depth-\p Depth truncation of one infinite random tree
/// shape determined by \p Seed: choices depend on the tree *path*, so the
/// graph at depth D is a prefix of the graph at depth D+1. That mirrors
/// the Kleene iterates a fixpoint computation actually feeds the
/// widening (ever deeper unrollings of one recursive structure).
static int pathChance(uint32_t Seed, uint64_t Path, uint32_t Salt) {
  uint64_t H = Path * 1099511628211ULL ^
               (uint64_t(Salt) * 0x9e3779b97f4a7c15ULL) ^ Seed;
  H ^= H >> 33;
  H *= 0xff51afd7ed558ccdULL;
  H ^= H >> 33;
  return static_cast<int>(H % 100);
}

static void genPathOr(TypeGraph &G, SymbolTable &Syms, NodeId Or,
                      uint32_t Seed, uint64_t Path, unsigned Depth) {
  FunctorId Cons = Syms.consFunctor();
  FunctorId NilF = Syms.nilFunctor();
  FunctorId SF = Syms.functor("s", 1);
  FunctorId ZeroF = Syms.functor("0", 0);
  FunctorId AF = Syms.functor("a", 0);
  std::vector<NodeId> Alts;
  Alts.push_back(G.addFunc(NilF, {}));
  if (Depth > 0 && pathChance(Seed, Path, 1) < 80) {
    NodeId Head = G.addOr({});
    NodeId Tail = G.addOr({});
    genPathOr(G, Syms, Head, Seed, Path * 4 + 1, Depth - 1);
    genPathOr(G, Syms, Tail, Seed, Path * 4 + 2, Depth - 1);
    Alts.push_back(G.addFunc(Cons, {Head, Tail}));
  }
  if (pathChance(Seed, Path, 2) < 30)
    Alts.push_back(G.addFunc(ZeroF, {}));
  if (Depth > 0 && pathChance(Seed, Path, 3) < 30) {
    NodeId Arg = G.addOr({});
    genPathOr(G, Syms, Arg, Seed, Path * 4 + 3, Depth - 1);
    Alts.push_back(G.addFunc(SF, {Arg}));
  }
  if (pathChance(Seed, Path, 4) < 20)
    Alts.push_back(G.addFunc(AF, {}));
  G.node(Or).Succs = std::move(Alts);
}

static TypeGraph randomListyGraph(SymbolTable &Syms, uint32_t Seed,
                                  unsigned Depth) {
  TypeGraph G;
  NodeId Root = G.addOr({});
  genPathOr(G, Syms, Root, Seed, 1, Depth);
  G.setRoot(Root);
  return normalizeGraph(G, Syms);
}

class WideningPropertyTest : public ::testing::TestWithParam<uint32_t> {
protected:
  SymbolTable Syms;
};

TEST_P(WideningPropertyTest, ResultIsUpperBound) {
  TypeGraph A = randomListyGraph(Syms, GetParam(), 2);
  TypeGraph B = randomListyGraph(Syms, GetParam() + 999331, 3);
  TypeGraph W = graphWiden(A, B, Syms);
  EXPECT_TRUE(graphIncludes(W, A, Syms));
  EXPECT_TRUE(graphIncludes(W, B, Syms));
  EXPECT_TRUE(W.validate(Syms));
}

TEST_P(WideningPropertyTest, IteratedWideningStabilizes) {
  // Simulates a fixpoint iteration: widen with ever deeper unrollings.
  // The chain must become stationary quickly (that is the entire point
  // of the operator).
  TypeGraph Acc = TypeGraph::makeBottom();
  unsigned Changes = 0;
  unsigned LastChange = 0;
  constexpr unsigned Steps = 12;
  for (unsigned Depth = 0; Depth != Steps; ++Depth) {
    TypeGraph Step = randomListyGraph(Syms, GetParam() * 31 + 7, Depth);
    TypeGraph Next = graphWiden(Acc, Step, Syms);
    if (!graphEquals(Next, Acc, Syms)) {
      ++Changes;
      LastChange = Depth;
    }
    Acc = Next;
  }
  // The chain must converge: with a fixed functor alphabet the widening
  // can only grow the graph a bounded number of times (Theorem 7.1).
  EXPECT_LT(Changes, Steps - 3u) << "widening chain kept changing";
  EXPECT_LT(LastChange, Steps - 3u) << "widening chain converged too late";
  // Re-widening with any earlier step is a no-op.
  TypeGraph Early = randomListyGraph(Syms, GetParam() * 31 + 7, 2);
  EXPECT_TRUE(graphEquals(graphWiden(Acc, Early, Syms), Acc, Syms));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WideningPropertyTest,
                         ::testing::Range(0u, 25u));

} // namespace
