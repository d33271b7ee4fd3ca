//===- tests/NormalizeMetricsTest.cpp - Normalization & metrics tests -----==//
///
/// \file
/// Tests for clause normalization (the GAIA primitive-operation form),
/// the Table 1/2 program metrics and the call graph's SCCs behind them.
///
//===----------------------------------------------------------------------===//

#include "programs/Benchmarks.h"
#include "prolog/CallGraph.h"
#include "prolog/Metrics.h"
#include "prolog/Normalize.h"

#include <gtest/gtest.h>

#include <set>

using namespace gaia;

namespace {

class NormalizeTest : public ::testing::Test {
protected:
  void load(const char *Src) {
    std::string Err;
    std::optional<Program> P = Program::parse(Src, Syms, &Err);
    ASSERT_TRUE(P.has_value()) << Err;
    Prog = *P;
    NProg = NProgram::fromProgram(Prog, Syms);
  }

  const NClause &clause(const char *Name, uint32_t Arity, size_t Idx) {
    const NProcedure *P = NProg.find(Syms.functor(Name, Arity));
    EXPECT_NE(P, nullptr);
    return P->Clauses[Idx];
  }

  SymbolTable Syms;
  Program Prog;
  NProgram NProg;
};

TEST_F(NormalizeTest, FactWithDistinctVarsHasNoOps) {
  load("p(X,Y).\n");
  const NClause &C = clause("p", 2, 0);
  EXPECT_EQ(C.Arity, 2u);
  EXPECT_EQ(C.NumVars, 2u);
  EXPECT_TRUE(C.Ops.empty());
}

TEST_F(NormalizeTest, RepeatedHeadVarsEmitUnifyVar) {
  load("p(X,X).\n");
  const NClause &C = clause("p", 2, 0);
  ASSERT_EQ(C.Ops.size(), 1u);
  EXPECT_EQ(C.Ops[0].K, NOp::Kind::UnifyVar);
  EXPECT_EQ(C.Ops[0].A, 1u);
  EXPECT_EQ(C.Ops[0].B, 0u);
}

TEST_F(NormalizeTest, HeadStructureIsFlattened) {
  load("append([],X,X).\n");
  const NClause &C = clause("append", 3, 0);
  // Arg0 = [] and Arg2 = Arg1.
  ASSERT_EQ(C.Ops.size(), 2u);
  EXPECT_EQ(C.Ops[0].K, NOp::Kind::UnifyFunc);
  EXPECT_EQ(C.Ops[0].A, 0u);
  EXPECT_EQ(C.Ops[0].Fn, Syms.nilFunctor());
  EXPECT_EQ(C.Ops[1].K, NOp::Kind::UnifyVar);
}

TEST_F(NormalizeTest, NestedStructuresUseFreshVars) {
  load("p(f(g(X))).\n");
  const NClause &C = clause("p", 1, 0);
  ASSERT_EQ(C.Ops.size(), 2u);
  EXPECT_EQ(C.Ops[0].K, NOp::Kind::UnifyFunc);
  EXPECT_EQ(Syms.functorName(C.Ops[0].Fn), "f");
  EXPECT_EQ(C.Ops[1].K, NOp::Kind::UnifyFunc);
  EXPECT_EQ(Syms.functorName(C.Ops[1].Fn), "g");
  // g binds the fresh variable introduced for f's argument.
  EXPECT_EQ(C.Ops[1].A, C.Ops[0].Args[0]);
}

TEST_F(NormalizeTest, CallArgumentsAreFlattened) {
  load("p(X) :- q(f(X), Y).\nq(_,_).\n");
  const NClause &C = clause("p", 1, 0);
  ASSERT_EQ(C.Ops.size(), 2u);
  EXPECT_EQ(C.Ops[0].K, NOp::Kind::UnifyFunc);
  EXPECT_EQ(C.Ops[1].K, NOp::Kind::Call);
  EXPECT_EQ(C.Ops[1].Args.size(), 2u);
  EXPECT_EQ(C.Ops[1].Args[0], C.Ops[0].A);
}

TEST_F(NormalizeTest, IntegersBecomeFunctors) {
  load("p(0).\n");
  const NClause &C = clause("p", 1, 0);
  ASSERT_EQ(C.Ops.size(), 1u);
  EXPECT_EQ(Syms.functorName(C.Ops[0].Fn), "0");
  EXPECT_TRUE(Syms.isIntegerLiteral(C.Ops[0].Fn));
}

TEST_F(NormalizeTest, BuiltinClassification) {
  load("p(X,Y) :- X < Y, Z is X + 1, q(Z).\nq(_).\n");
  const NClause &C = clause("p", 2, 0);
  // ops: Builtin(<), UnifyFunc(T = +(X,V)), UnifyFunc(V = 1),
  //      Builtin(is), Call(q).
  ASSERT_EQ(C.Ops.size(), 5u);
  EXPECT_EQ(C.Ops[0].K, NOp::Kind::Builtin);
  EXPECT_EQ(C.Ops[0].BK, BuiltinKind::ArithTest);
  EXPECT_EQ(C.Ops[1].K, NOp::Kind::UnifyFunc);
  EXPECT_EQ(Syms.functorName(C.Ops[1].Fn), "+");
  EXPECT_EQ(C.Ops[2].K, NOp::Kind::UnifyFunc);
  EXPECT_EQ(Syms.functorName(C.Ops[2].Fn), "1");
  EXPECT_EQ(C.Ops[3].K, NOp::Kind::Builtin);
  EXPECT_EQ(C.Ops[3].BK, BuiltinKind::Is);
  EXPECT_EQ(C.Ops[4].K, NOp::Kind::Call);
}

TEST_F(NormalizeTest, EqualsBecomesUnification) {
  load("p(X,Y) :- X = f(Y).\n");
  const NClause &C = clause("p", 2, 0);
  ASSERT_EQ(C.Ops.size(), 1u);
  EXPECT_EQ(C.Ops[0].K, NOp::Kind::UnifyFunc);
  EXPECT_EQ(Syms.functorName(C.Ops[0].Fn), "f");
}

TEST_F(NormalizeTest, DisjunctionExpandsClauses) {
  load("p(X) :- (X = a ; X = b).\n");
  const NProcedure *P = NProg.find(Syms.functor("p", 1));
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(P->Clauses.size(), 2u);
}

TEST_F(NormalizeTest, IfThenElseExpandsClauses) {
  load("p(X) :- (q -> X = a ; X = b).\nq.\n");
  const NProcedure *P = NProg.find(Syms.functor("p", 1));
  ASSERT_NE(P, nullptr);
  ASSERT_EQ(P->Clauses.size(), 2u);
  // First path contains the call to q then the unification.
  EXPECT_EQ(P->Clauses[0].Ops.size(), 2u);
  EXPECT_EQ(P->Clauses[1].Ops.size(), 1u);
}

TEST_F(NormalizeTest, NegationIsOpaque) {
  load("p(X) :- \\+ q(X).\nq(_).\n");
  const NClause &C = clause("p", 1, 0);
  ASSERT_EQ(C.Ops.size(), 1u);
  EXPECT_EQ(C.Ops[0].K, NOp::Kind::Builtin);
  EXPECT_EQ(C.Ops[0].BK, BuiltinKind::Opaque);
}

TEST_F(NormalizeTest, UnknownPredicatesAreRecorded) {
  load("p :- mystery(1).\n");
  EXPECT_EQ(NProg.unknownPredicates().size(), 1u);
  const NClause &C = clause("p", 0, 0);
  // UnifyFunc for the argument, then the opaque builtin.
  ASSERT_EQ(C.Ops.size(), 2u);
  EXPECT_EQ(C.Ops[1].K, NOp::Kind::Builtin);
  EXPECT_EQ(C.Ops[1].BK, BuiltinKind::True);
}

class MetricsTest : public ::testing::Test {
protected:
  void load(const char *Src) {
    std::string Err;
    std::optional<Program> P = Program::parse(Src, Syms, &Err);
    ASSERT_TRUE(P.has_value()) << Err;
    Prog = *P;
    NProg = NProgram::fromProgram(Prog, Syms);
  }

  SymbolTable Syms;
  Program Prog;
  NProgram NProg;
};

TEST_F(MetricsTest, NreverseSizes) {
  load("nreverse([],[]).\n"
       "nreverse([F|T],R) :- nreverse(T,RT), append(RT,[F],R).\n"
       "append([],X,X).\n"
       "append([F|T],S,[F|R]) :- append(T,S,R).\n");
  SizeMetrics M = computeSizeMetrics(Prog, NProg, Syms,
                                     Syms.functor("nreverse", 2));
  EXPECT_EQ(M.NumProcedures, 2u);
  EXPECT_EQ(M.NumClauses, 4u);
  EXPECT_EQ(M.NumGoals, 3u);
  // nreverse -> append, recursion cut: 2 nodes.
  EXPECT_EQ(M.StaticCallTreeSize, 2u);
  EXPECT_GT(M.NumProgramPoints, M.NumClauses);
}

TEST_F(MetricsTest, RecursionClassification) {
  load(// tail recursive
       "last([X],X).\n"
       "last([_|T],X) :- last(T,X).\n"
       // locally recursive (nonterminal recursive call)
       "nrev([],[]).\n"
       "nrev([F|T],R) :- nrev(T,RT), app(RT,[F],R).\n"
       // tail recursive
       "app([],X,X).\n"
       "app([F|T],S,[F|R]) :- app(T,S,R).\n"
       // mutually recursive pair
       "even(0).\n"
       "even(s(X)) :- odd(X).\n"
       "odd(s(X)) :- even(X).\n"
       // non-recursive
       "main(X) :- nrev([1,2],X).\n");
  RecursionMetrics R = classifyRecursion(Prog, Syms);
  EXPECT_EQ(R.TailRecursive, 2u);
  EXPECT_EQ(R.LocallyRecursive, 1u);
  EXPECT_EQ(R.MutuallyRecursive, 2u);
  EXPECT_EQ(R.NonRecursive, 1u);
}

TEST_F(MetricsTest, LocallyRecursiveByMultipleCalls) {
  // Two recursive calls (divide and conquer, like PR in the paper).
  load("split(_,[],[],[]).\n"
       "qs([],[]).\n"
       "qs([P|T],S) :- split(P,T,A,B), qs(A,SA), qs(B,SB), app(SA,SB,S).\n"
       "app([],X,X).\n"
       "app([F|T],S,[F|R]) :- app(T,S,R).\n");
  RecursionMetrics R = classifyRecursion(Prog, Syms);
  EXPECT_EQ(R.LocallyRecursive, 1u);
  EXPECT_EQ(R.TailRecursive, 1u);
  EXPECT_EQ(R.NonRecursive, 1u);
}

TEST_F(MetricsTest, CallsInsideControlAreCounted) {
  load("p :- (a ; b), \\+ c.\na.\nb.\nc.\n");
  SizeMetrics M =
      computeSizeMetrics(Prog, NProg, Syms, Syms.functor("p", 0));
  EXPECT_EQ(M.NumGoals, 3u);
}

TEST_F(MetricsTest, SCCsAreComputed) {
  load("a :- b.\nb :- c.\nc :- a.\nd :- a.\ne.\n");
  CallGraph CG(Prog, Syms);
  auto SCCs = CG.stronglyConnectedComponents();
  size_t Big = 0, Single = 0;
  for (const auto &S : SCCs)
    (S.size() > 1 ? Big : Single) += 1;
  EXPECT_EQ(Big, 1u);
  EXPECT_EQ(Single, 2u);
}

//===----------------------------------------------------------------------===//
// CallGraph SCCs.
//===----------------------------------------------------------------------===//

class CallGraphTest : public ::testing::Test {
protected:
  void load(const char *Src) {
    std::string Err;
    std::optional<Program> P = Program::parse(Src, Syms, &Err);
    ASSERT_TRUE(P.has_value()) << Err;
    Prog = *P;
  }

  FunctorId fn(const char *Name, uint32_t Arity) {
    return Syms.functor(Name, Arity);
  }

  SymbolTable Syms;
  Program Prog;
};

constexpr const char *MutualSrc = R"(
a(X) :- b(X).
b(X) :- c(X), d(X).
c(X) :- b(X).
c(0).
d(1).
e(X) :- e(X).
)";

TEST_F(CallGraphTest, PinnedSccs) {
  load(MutualSrc);
  CallGraph CG(Prog, Syms);
  auto Sccs = CG.stronglyConnectedComponents();
  // Tarjan emits callees first: {b,c} before a; d before the {b,c}
  // caller-side pop order is not pinned here, only the component sets.
  std::set<std::set<FunctorId>> Got;
  for (const auto &S : Sccs)
    Got.insert(std::set<FunctorId>(S.begin(), S.end()));
  std::set<std::set<FunctorId>> Want = {
      {fn("a", 1)}, {fn("b", 1), fn("c", 1)}, {fn("d", 1)}, {fn("e", 1)}};
  EXPECT_EQ(Got, Want);
}

TEST_F(CallGraphTest, SccsConsistentWithRecursionClassifier) {
  // The SCCs and the Table 2 classifier must agree: a predicate is in a
  // size->1 SCC iff the classifier calls it mutually recursive.
  for (const BenchmarkProgram &B : table123Suite()) {
    SymbolTable S;
    std::string Err;
    std::optional<Program> P = Program::parse(B.Source, S, &Err);
    ASSERT_TRUE(P.has_value()) << B.Key << ": " << Err;
    CallGraph CG(*P, S);
    uint32_t InBigScc = 0;
    for (const auto &Scc : CG.stronglyConnectedComponents())
      if (Scc.size() > 1)
        InBigScc += static_cast<uint32_t>(Scc.size());
    RecursionMetrics M = classifyRecursion(*P, S);
    EXPECT_EQ(InBigScc, M.MutuallyRecursive) << B.Key;
  }
}

} // namespace
