//===- bench/normalize_hot.cpp - Normalization hot-path microbenchmarks ---==//
///
/// \file
/// google-benchmark microbenchmarks for the type-graph hot path:
/// `normalizeGraph`, `graphUnion`, `graphIntersect` and the widening's
/// `collapsingUnionFrom` on the deepest graphs the PR and RE analyses
/// actually produce (these two programs dominate Table 3's uncapped
/// solve time), plus the certified-copy fast path and graph copying
/// itself. Two synthetic automata of the size the analyses normalize
/// (7 and 13 states) isolate the minimizer: one already minimal, so the
/// partition is discrete from the start, and one made of two
/// isomorphic halves that minimization merges.
///
/// Besides wall time, every benchmark reports **heap allocations per
/// operation** via a counting global `operator new`. Normalization runs
/// on flat, reused NormalizeScratch pools (fixed-size state records,
/// one key/transition/argument pool, open-addressing tables cleared by
/// epoch, a scratch tree emitted once in breadth-first order), so a warm
/// normalization should allocate only its output graph; this harness is
/// where that is measured rather than asserted.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "support/GraphInterner.h"
#include "typegraph/GraphOps.h"
#include "typegraph/Normalize.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <new>

//===----------------------------------------------------------------------===//
// Allocation counting. Single-threaded benchmarks; a plain counter is
// fine and keeps the hooks cheap.
//===----------------------------------------------------------------------===//

static uint64_t GAllocs = 0;

void *operator new(std::size_t Size) {
  ++GAllocs;
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Size) { return ::operator new(Size); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

using namespace gaia;

namespace {

/// The harvested corpus: the deepest (largest by the paper's size
/// metric) input/output graphs of one program's analysis, plus the
/// symbol table they refer to.
struct Corpus {
  std::shared_ptr<SymbolTable> Syms;
  std::vector<TypeGraph> Graphs; ///< sorted by descending sizeMetric
};

Corpus harvest(const char *Key) {
  const BenchmarkProgram *B = findBenchmark(Key);
  if (!B) {
    std::fprintf(stderr, "error: unknown benchmark %s\n", Key);
    std::abort();
  }
  AnalysisResult R = runBenchmark(*B);
  Corpus C;
  C.Syms = R.Syms;
  for (const PredicateSummary &S : R.Summaries) {
    for (const ArgInfo &A : S.Input)
      if (!A.Graph.isBottomGraph())
        C.Graphs.push_back(A.Graph);
    for (const ArgInfo &A : S.Output)
      if (!A.Graph.isBottomGraph())
        C.Graphs.push_back(A.Graph);
  }
  std::stable_sort(C.Graphs.begin(), C.Graphs.end(),
                   [](const TypeGraph &A, const TypeGraph &B) {
                     return A.sizeMetric() > B.sizeMetric();
                   });
  if (C.Graphs.empty()) {
    std::fprintf(stderr, "error: %s analysis produced no graphs\n", Key);
    std::abort();
  }
  return C;
}

Corpus &corpusPR() {
  static Corpus C = harvest("PR");
  return C;
}
Corpus &corpusRE() {
  static Corpus C = harvest("RE");
  return C;
}

/// Strips the normalization certificate (and the other derived caches)
/// without changing structure, so the full pipeline runs instead of the
/// certified-copy fast path.
TypeGraph uncertified(const TypeGraph &G) { return G.compact(); }

void reportAllocs(benchmark::State &State, uint64_t Start) {
  State.counters["allocs/op"] = benchmark::Counter(
      static_cast<double>(GAllocs - Start), benchmark::Counter::kAvgIterations);
}

void BM_NormalizeDeep(benchmark::State &State, Corpus &(*Get)()) {
  Corpus &C = Get();
  TypeGraph Raw = uncertified(C.Graphs.front());
  NormalizeScratch Scratch;
  uint64_t Start = GAllocs;
  for (auto _ : State) {
    TypeGraph N = normalizeGraph(Raw, *C.Syms, {}, &Scratch);
    benchmark::DoNotOptimize(N.numNodes());
  }
  reportAllocs(State, Start);
}

void BM_NormalizeCertified(benchmark::State &State, Corpus &(*Get)()) {
  Corpus &C = Get();
  NormalizeScratch Scratch;
  TypeGraph Certified = normalizeGraph(C.Graphs.front(), *C.Syms, {}, &Scratch);
  uint64_t Start = GAllocs;
  for (auto _ : State) {
    TypeGraph N = normalizeGraph(Certified, *C.Syms, {}, &Scratch);
    benchmark::DoNotOptimize(N.numNodes());
  }
  reportAllocs(State, Start);
}

void BM_GraphUnion(benchmark::State &State, Corpus &(*Get)()) {
  Corpus &C = Get();
  const TypeGraph &A = C.Graphs.front();
  const TypeGraph &B = C.Graphs.size() > 1 ? C.Graphs[1] : C.Graphs[0];
  NormalizeScratch Scratch;
  uint64_t Start = GAllocs;
  for (auto _ : State) {
    TypeGraph U = graphUnion(A, B, *C.Syms, {}, &Scratch);
    benchmark::DoNotOptimize(U.numNodes());
  }
  reportAllocs(State, Start);
}

void BM_GraphIntersect(benchmark::State &State, Corpus &(*Get)()) {
  Corpus &C = Get();
  const TypeGraph &A = C.Graphs.front();
  const TypeGraph &B = C.Graphs.size() > 1 ? C.Graphs[1] : C.Graphs[0];
  NormalizeScratch Scratch;
  uint64_t Start = GAllocs;
  for (auto _ : State) {
    TypeGraph I = graphIntersect(A, B, *C.Syms, {}, &Scratch);
    benchmark::DoNotOptimize(I.numNodes());
  }
  reportAllocs(State, Start);
}

void BM_GraphCopy(benchmark::State &State, Corpus &(*Get)()) {
  Corpus &C = Get();
  const TypeGraph &A = C.Graphs.front();
  uint64_t Start = GAllocs;
  for (auto _ : State) {
    TypeGraph Copy = A;
    benchmark::DoNotOptimize(Copy.numNodes());
  }
  reportAllocs(State, Start);
}

void BM_StructuralHashCold(benchmark::State &State, Corpus &(*Get)()) {
  Corpus &C = Get();
  const TypeGraph &A = C.Graphs.front();
  uint64_t Start = GAllocs;
  for (auto _ : State) {
    // compact() strips the cached signature, so this measures the full
    // BFS hash; the warm path is a member load.
    TypeGraph Cold = uncertified(A);
    benchmark::DoNotOptimize(structuralHash(Cold));
  }
  reportAllocs(State, Start);
}

void BM_CollapsingUnion(benchmark::State &State, Corpus &(*Get)()) {
  Corpus &C = Get();
  const TypeGraph &A = C.Graphs.front();
  // The root plus the first argument of its first compound alternative:
  // the shape of the widening's replacement-rule unions.
  std::vector<NodeId> Start{A.root()};
  for (NodeId S : A.node(A.root()).Succs)
    if (A.node(S).Kind == NodeKind::Func && !A.node(S).Succs.empty()) {
      Start.push_back(A.node(S).Succs[0]);
      break;
    }
  NormalizeScratch Scratch;
  uint64_t Start0 = GAllocs;
  for (auto _ : State) {
    TypeGraph U = collapsingUnionFrom(A, Start, *C.Syms, {}, &Scratch);
    benchmark::DoNotOptimize(U.numNodes());
  }
  reportAllocs(State, Start0);
}

/// A raw chain T_i ::= a_i | f_i(T_{i+1}) closed into a cycle, rooted at
/// g(T_0, U_0) over \p Halves such chains sharing one functor alphabet
/// (1 + 6 * Halves states). With one half every state has its own
/// functors, so the minimizer's initial partition is already discrete;
/// with two, U_i and T_i are distinct subset states with equal languages
/// and minimization merges them.
TypeGraph chainAutomaton(SymbolTable &Syms, unsigned Halves) {
  constexpr unsigned Len = 6;
  TypeGraph G;
  SuccList Heads;
  for (unsigned H = 0; H != Halves; ++H) {
    NodeId First = G.numNodes();
    for (unsigned I = 0; I != Len; ++I)
      G.addOr({});
    for (unsigned I = 0; I != Len; ++I) {
      std::string N = std::to_string(I);
      NodeId Leaf = G.addFunc(Syms.functor("a" + N, 0), {});
      NodeId Next = First + (I + 1) % Len;
      NodeId Fn = G.addFunc(Syms.functor("f" + N, 1), {Next});
      G.node(First + I).Succs = {Leaf, Fn};
    }
    Heads.push_back(First);
  }
  NodeId Top = G.addFunc(Syms.functor("g", Halves), std::move(Heads));
  G.setRoot(G.addOr({Top}));
  return G;
}

void BM_Minimize(benchmark::State &State, unsigned Halves) {
  SymbolTable Syms;
  TypeGraph Raw = chainAutomaton(Syms, Halves);
  NormalizeScratch Scratch;
  uint64_t Start = GAllocs;
  for (auto _ : State) {
    TypeGraph N = normalizeGraph(Raw, Syms, {}, &Scratch);
    benchmark::DoNotOptimize(N.numNodes());
  }
  reportAllocs(State, Start);
}

void registerAll(const char *Tag, Corpus &(*Get)()) {
  auto Reg = [&](const char *Name, void (*Fn)(benchmark::State &,
                                              Corpus &(*)())) {
    benchmark::RegisterBenchmark(
        (std::string(Name) + "/" + Tag).c_str(),
        [Fn, Get](benchmark::State &S) { Fn(S, Get); });
  };
  Reg("BM_NormalizeDeep", BM_NormalizeDeep);
  Reg("BM_NormalizeCertified", BM_NormalizeCertified);
  Reg("BM_GraphUnion", BM_GraphUnion);
  Reg("BM_GraphIntersect", BM_GraphIntersect);
  Reg("BM_GraphCopy", BM_GraphCopy);
  Reg("BM_StructuralHashCold", BM_StructuralHashCold);
  Reg("BM_CollapsingUnion", BM_CollapsingUnion);
}

} // namespace

int main(int argc, char **argv) {
  // Harvest before benchmarking so the analyses' allocations do not
  // pollute the per-op counters, and print the corpus shape once.
  Corpus &PR = corpusPR();
  Corpus &RE = corpusRE();
  std::printf("normalize_hot corpus: PR %zu graphs (deepest size %llu), "
              "RE %zu graphs (deepest size %llu)\n",
              PR.Graphs.size(),
              static_cast<unsigned long long>(PR.Graphs.front().sizeMetric()),
              RE.Graphs.size(),
              static_cast<unsigned long long>(RE.Graphs.front().sizeMetric()));
  registerAll("PR", corpusPR);
  registerAll("RE", corpusRE);
  benchmark::RegisterBenchmark("BM_MinimizeNoMerge",
                               [](benchmark::State &S) { BM_Minimize(S, 1); });
  benchmark::RegisterBenchmark("BM_MinimizeMerge",
                               [](benchmark::State &S) { BM_Minimize(S, 2); });
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
