//===- tests/EngineTest.cpp - GAIA fixpoint engine tests ------------------==//
///
/// \file
/// End-to-end fixpoint tests on small programs, including the first of
/// the paper's Section 2 examples (nreverse). The full Section 2 golden
/// suite lives in AnalyzerSection2Test.cpp; here we exercise the engine
/// API directly and its corner cases (recursion, mutual recursion,
/// failure, polyvariance, builtins).
///
//===----------------------------------------------------------------------===//

#include "gaia/Engine.h"

#include "core/Analyzer.h"
#include "domains/PFLeaf.h"
#include "domains/TypeLeaf.h"
#include "programs/Benchmarks.h"
#include "typegraph/GrammarParser.h"
#include "typegraph/GrammarPrinter.h"
#include "typegraph/GraphOps.h"

#include <gtest/gtest.h>

using namespace gaia;

namespace {

class EngineTest : public ::testing::Test {
protected:
  EngineTest() : Ctx{Syms, {}, {}, nullptr} {}

  void load(const char *Src) {
    std::string Err;
    std::optional<Program> P = Program::parse(Src, Syms, &Err);
    ASSERT_TRUE(P.has_value()) << Err;
    Prog = *P;
    NProg = NProgram::fromProgram(Prog, Syms);
  }

  /// Runs predicate Name/Arity with all-Any input; returns the output.
  PatSub<TypeLeaf> analyze(const char *Name, uint32_t Arity,
                           EngineOptions Opts = {}) {
    Eng = std::make_unique<Engine<TypeLeaf>>(NProg, Ctx, Opts);
    PatSub<TypeLeaf> In = PatSub<TypeLeaf>::top(Ctx, Arity);
    return Eng->solve(Syms.functor(Name, Arity), In);
  }

  TypeGraph parse(const char *Text) {
    std::string Err;
    std::optional<TypeGraph> G = parseGrammar(Text, Syms, &Err);
    EXPECT_TRUE(G.has_value()) << Err;
    return G ? *G : TypeGraph::makeBottom();
  }

  void expectArg(const PatSub<TypeLeaf> &Out, uint32_t Slot,
                 const char *Grammar) {
    TypeGraph Got = Out.slotValue(Ctx, Slot);
    TypeGraph Want = parse(Grammar);
    EXPECT_TRUE(graphEquals(Got, Want, Syms))
        << "slot " << Slot << ": got\n"
        << printGrammar(Got, Syms) << "want\n"
        << printGrammar(Want, Syms);
  }

  SymbolTable Syms;
  TypeLeaf::Context Ctx;
  Program Prog;
  NProgram NProg;
  std::unique_ptr<Engine<TypeLeaf>> Eng;
};

TEST_F(EngineTest, FactOnly) {
  load("p(a).\n");
  PatSub<TypeLeaf> Out = analyze("p", 1);
  ASSERT_FALSE(Out.isBottom());
  expectArg(Out, 0, "T ::= a.");
}

TEST_F(EngineTest, TwoFactsJoin) {
  load("p(a).\np(b).\n");
  expectArg(analyze("p", 1), 0, "T ::= a | b.");
}

TEST_F(EngineTest, FailingPredicateIsBottom) {
  load("p(X) :- fail.\n");
  EXPECT_TRUE(analyze("p", 1).isBottom());
}

TEST_F(EngineTest, StructuresPropagate) {
  load("p(f(X,Y)) :- q(X), r(Y).\nq(a).\nr(b).\n");
  expectArg(analyze("p", 1), 0, "T ::= f(A,B).\nA ::= a.\nB ::= b.");
}

TEST_F(EngineTest, AppendFirstArgumentIsList) {
  load("append([],X,X).\n"
       "append([F|T],S,[F|R]) :- append(T,S,R).\n");
  PatSub<TypeLeaf> Out = analyze("append", 3);
  expectArg(Out, 0, "T ::= [] | cons(Any,T).");
}

TEST_F(EngineTest, NreverseMatchesPaper) {
  // Section 2: for nreverse(Any,Any) the system produces
  // nreverse(T,T) with T ::= [] | cons(Any,T).
  load("nreverse([],[]).\n"
       "nreverse([F|T],Res) :- nreverse(T,Trev), append(Trev,[F],Res).\n"
       "append([],X,X).\n"
       "append([F|T],S,[F|R]) :- append(T,S,R).\n");
  PatSub<TypeLeaf> Out = analyze("nreverse", 2);
  ASSERT_FALSE(Out.isBottom());
  expectArg(Out, 0, "T ::= [] | cons(Any,T).");
  expectArg(Out, 1, "T ::= [] | cons(Any,T).");
}

TEST_F(EngineTest, MutualRecursionConverges) {
  load("even(0).\neven(s(X)) :- odd(X).\nodd(s(X)) :- even(X).\n");
  PatSub<TypeLeaf> Out = analyze("even", 1);
  ASSERT_FALSE(Out.isBottom());
  // The analysis infers exactly the even Peano numerals.
  expectArg(Out, 0, "T ::= 0 | s(T1).\nT1 ::= s(T).");
}

TEST_F(EngineTest, ArithmeticBuiltinsGiveInt) {
  load("inc(X,Y) :- Y is X + 1.\n");
  PatSub<TypeLeaf> Out = analyze("inc", 2);
  expectArg(Out, 1, "T ::= Int.");
}

TEST_F(EngineTest, ComparisonRefinementIsOptIn) {
  load("min(X,Y,X) :- X < Y.\nmin(X,Y,Y) :- X >= Y.\n");
  // Default (paper-faithful): comparisons do not refine.
  PatSub<TypeLeaf> Out = analyze("min", 3);
  expectArg(Out, 0, "T ::= Any.");
  // Opt-in: both sides become Int.
  EngineOptions Opts;
  Opts.RefineArithComparisons = true;
  Out = analyze("min", 3, Opts);
  expectArg(Out, 0, "T ::= Int.");
  expectArg(Out, 1, "T ::= Int.");
  expectArg(Out, 2, "T ::= Int.");
}

TEST_F(EngineTest, ComparisonOverExpressionsStaysSound) {
  // queens-style: X =\= Y + N compares an expression; with refinement
  // off the analysis must not fail.
  load("safe(X,Y,N) :- X =\\= Y + N.\n");
  PatSub<TypeLeaf> Out = analyze("safe", 3);
  EXPECT_FALSE(Out.isBottom());
}

TEST_F(EngineTest, PolyvariantEntries) {
  // p is called with two different input patterns; the analysis must
  // keep them apart (it is polyvariant).
  load("main(X,Y) :- p(a,X), p(f(Z),Y).\n"
       "p(X,X).\n");
  Eng = std::make_unique<Engine<TypeLeaf>>(NProg, Ctx);
  PatSub<TypeLeaf> In = PatSub<TypeLeaf>::top(Ctx, 2);
  PatSub<TypeLeaf> Out = Eng->solve(Syms.functor("main", 2), In);
  ASSERT_FALSE(Out.isBottom());
  expectArg(Out, 0, "T ::= a.");
  expectArg(Out, 1, "T ::= f(Any).");
  // main + two p entries.
  EXPECT_GE(Eng->stats().InputPatterns, 3u);
}

TEST_F(EngineTest, RepeatedCallPatternsShareOneEntry) {
  // Both calls of p present the same input pattern; the hashed memo
  // lookup must find the first entry for the second call instead of
  // allocating a duplicate.
  load("main(X,Y) :- p(a,X), p(a,Y).\n"
       "p(X,X).\n");
  Eng = std::make_unique<Engine<TypeLeaf>>(NProg, Ctx);
  PatSub<TypeLeaf> In = PatSub<TypeLeaf>::top(Ctx, 2);
  PatSub<TypeLeaf> Out = Eng->solve(Syms.functor("main", 2), In);
  ASSERT_FALSE(Out.isBottom());
  EXPECT_EQ(Eng->stats().InputPatterns, 2u); // main + one p entry
  EXPECT_GE(Eng->stats().EntryLookups, 2u);
}

TEST_F(EngineTest, ExhaustedFixpointBudgetFallsBackToTop) {
  // Regression for the silent-non-convergence bug: the stabilization
  // guard used to be assert(Rounds < 10000), which compiles away under
  // NDEBUG and let release builds return a dirty (non-converged) result
  // as if final. With the budget too small to converge, the engine must
  // take the explicit failure path: degrade to top (sound), count the
  // abort, and still terminate — in every build mode.
  load("append([],X,X).\n"
       "append([F|T],S,[F|R]) :- append(T,S,R).\n");
  EngineOptions Opts;
  Opts.MaxFixpointRounds = 1;
  PatSub<TypeLeaf> Out = analyze("append", 3, Opts);
  EXPECT_GE(Eng->stats().FixpointAborts, 1u);
  ASSERT_FALSE(Out.isBottom());
  // The fallback must still cover the true answer (soundness).
  TypeGraph List = parse("T ::= [] | cons(Any,T).");
  EXPECT_TRUE(graphIncludes(Out.slotValue(Ctx, 0), List, Syms));
}

TEST_F(EngineTest, DefaultBudgetConvergesWithoutAborts) {
  load("append([],X,X).\n"
       "append([F|T],S,[F|R]) :- append(T,S,R).\n");
  analyze("append", 3);
  EXPECT_EQ(Eng->stats().FixpointAborts, 0u);
}

TEST_F(EngineTest, AnalyzerSurfacesNonConvergence) {
  const char *Src = "append([],X,X).\n"
                    "append([F|T],S,[F|R]) :- append(T,S,R).\n";
  AnalyzerOptions Tight;
  Tight.MaxFixpointRounds = 1;
  AnalysisResult R = analyzeProgram(Src, "append(any,any,any)", Tight);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_FALSE(R.Converged);
  EXPECT_GE(R.Stats.FixpointAborts, 1u);

  AnalysisResult R2 = analyzeProgram(Src, "append(any,any,any)");
  ASSERT_TRUE(R2.Ok) << R2.Error;
  EXPECT_TRUE(R2.Converged);
  EXPECT_EQ(R2.Stats.FixpointAborts, 0u);
}

TEST_F(EngineTest, StatsAreCounted) {
  load("append([],X,X).\n"
       "append([F|T],S,[F|R]) :- append(T,S,R).\n");
  analyze("append", 3);
  EXPECT_GE(Eng->stats().ProcedureIterations, 2u);
  EXPECT_GE(Eng->stats().ClauseIterations,
            2 * Eng->stats().ProcedureIterations - 2);
  EXPECT_GT(Eng->stats().SolveSeconds, 0.0);
}

TEST_F(EngineTest, StaleDependencyEdgesAreUnlinked) {
  // Regression test for the reverse-dependency graph: compute() clears
  // an entry's Deps each pass, and must also remove the entry from the
  // old callees' Dependents sets. With the stale edges left in place,
  // entries abandoned as call patterns evolve along a recursion kept
  // dirtying their former dependents on every change, inflating —
  // through transitive dirtying — the recompute count. On the KA
  // benchmark the stale-edge engine measured 156 procedure iterations;
  // unlinking gives the counts below. The analysis *results* are
  // identical either way (recomputes are idempotent); the counters pin
  // the dependency bookkeeping itself.
  const BenchmarkProgram *KA = findBenchmark("KA");
  ASSERT_NE(KA, nullptr);
  AnalysisResult R = analyzeProgram(KA->Source, KA->GoalSpec);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.Converged);
  EXPECT_EQ(R.Stats.ProcedureIterations, 146u) << "stale edges gave 156";

  const BenchmarkProgram *RE = findBenchmark("RE");
  ASSERT_NE(RE, nullptr);
  AnalysisResult R2 = analyzeProgram(RE->Source, RE->GoalSpec);
  ASSERT_TRUE(R2.Ok) << R2.Error;
  EXPECT_EQ(R2.Stats.ProcedureIterations, 121u) << "stale edges gave 153";
}

TEST_F(EngineTest, AccumulatorProcessExample) {
  // Section 2, the parser abstraction with an accumulator:
  // process(T,S): T ::= [] | cons(T1,T); T1 ::= c(Any) | d(Any);
  //               S ::= 0 | c(Any,S) | d(Any,S).
  load("process(X,Y) :- process(X,0,Y).\n"
       "process([],X,X).\n"
       "process([c(X1)|Y],Acc,X) :- process(Y,c(X1,Acc),X).\n"
       "process([d(X1)|Y],Acc,X) :- process(Y,d(X1,Acc),X).\n");
  PatSub<TypeLeaf> Out = analyze("process", 2);
  ASSERT_FALSE(Out.isBottom());
  expectArg(Out, 0, "T ::= [] | cons(T1,T).\nT1 ::= c(Any) | d(Any).");
  expectArg(Out, 1, "S ::= 0 | c(Any,S) | d(Any,S).");
}

//===----------------------------------------------------------------------===//
// Principal-functor instantiation.
//===----------------------------------------------------------------------===//

class PFEngineTest : public ::testing::Test {
protected:
  PFEngineTest() : Ctx{Syms} {}

  void load(const char *Src) {
    std::string Err;
    std::optional<Program> P = Program::parse(Src, Syms, &Err);
    ASSERT_TRUE(P.has_value()) << Err;
    Prog = *P;
    NProg = NProgram::fromProgram(Prog, Syms);
  }

  SymbolTable Syms;
  PFLeaf::Context Ctx;
  Program Prog;
  NProgram NProg;
};

TEST_F(PFEngineTest, SingleFunctorIsKept) {
  load("p(f(X)) :- q(X).\nq(a).\n");
  Engine<PFLeaf> Eng(NProg, Ctx);
  PatSub<PFLeaf> Out =
      Eng.solve(Syms.functor("p", 1), PatSub<PFLeaf>::top(Ctx, 1));
  ASSERT_FALSE(Out.isBottom());
  ASSERT_TRUE(Out.slotFrame(0).has_value());
  EXPECT_EQ(Syms.functorName(*Out.slotFrame(0)), "f");
}

TEST_F(PFEngineTest, DisjunctionLosesFunctor) {
  load("p(a).\np(b).\n");
  Engine<PFLeaf> Eng(NProg, Ctx);
  PatSub<PFLeaf> Out =
      Eng.solve(Syms.functor("p", 1), PatSub<PFLeaf>::top(Ctx, 1));
  EXPECT_FALSE(Out.slotFrame(0).has_value());
}

TEST_F(PFEngineTest, AppendConvergesWithoutTypes) {
  load("append([],X,X).\n"
       "append([F|T],S,[F|R]) :- append(T,S,R).\n");
  Engine<PFLeaf> Eng(NProg, Ctx);
  PatSub<PFLeaf> Out =
      Eng.solve(Syms.functor("append", 3), PatSub<PFLeaf>::top(Ctx, 3));
  ASSERT_FALSE(Out.isBottom());
  // [] vs cons clash: no principal functor for the first argument.
  EXPECT_FALSE(Out.slotFrame(0).has_value());
}

} // namespace
