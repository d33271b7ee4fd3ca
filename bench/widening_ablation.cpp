//===- bench/widening_ablation.cpp - Widening strategy ablation -----------==//
///
/// \file
/// The ablation DESIGN.md calls out: the paper's widening operator vs
/// the depth-k truncation baseline (the finite-subdomain approach of
/// Bruynooghe & Janssens that Section 7 sets the operator against), and
/// the effect of the conclusion's type-database extension. For each
/// Section 2 example we report analysis time and whether the strategy
/// reaches the paper's (exact) type.
///
/// Since the widening fast-path work this harness also reports the
/// widening hot-loop counters for the widening-heavy Table 3 programs
/// (clash counts, transform rule firings, pf-set interner hit rates)
/// and — via a counting global `operator new`, the same harness
/// bench/normalize_hot.cpp uses — **allocations per warm widening** on
/// the worst-case graph pairs the PR and RE analyses produce. The claim
/// is that a warm `widenOf` is allocation-free in steady state (<= 1
/// alloc/op).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "typegraph/GrammarParser.h"
#include "typegraph/GrammarPrinter.h"
#include "typegraph/GraphOps.h"
#include "typegraph/OpCache.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <new>

//===----------------------------------------------------------------------===//
// Allocation counting (see bench/normalize_hot.cpp). Single-threaded
// benchmarks; a plain counter keeps the hooks cheap.
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

static void printAblation() {
  printHeaderBlock("Widening ablation",
                   "Section 7 operator vs depth-k truncation");
  std::printf("%-16s  %-10s  %-8s  %-10s  %s\n", "example", "strategy",
              "time(s)", "procIters", "first-arg type");
  for (const char *Key : {"nreverse", "process", "nested", "gen", "AR",
                          "AR1"}) {
    const BenchmarkProgram *B = findBenchmark(Key);
    AnalysisResult Paper = runBenchmark(*B);
    for (unsigned K : {2u, 4u, 8u}) {
      AnalyzerOptions Opts;
      Opts.Widening = WidenMode::DepthK;
      Opts.DepthK = K;
      AnalysisResult R = runBenchmark(*B, Opts);
      constexpr size_t Arg = 0; // report the first argument's type
      bool Exact =
          R.QuerySucceeds &&
          graphEquals(R.QueryOutput[Arg], Paper.QueryOutput[Arg],
                      *R.Syms);
      std::string Grammar =
          Exact ? "exact"
                : printGrammarInline(R.QueryOutput[Arg], *R.Syms);
      std::printf("%-16s  depth-%-4u  %8.4f  %10llu  %s\n", Key, K,
                  R.Stats.SolveSeconds,
                  static_cast<unsigned long long>(
                      R.Stats.ProcedureIterations),
                  Grammar.c_str());
    }
    constexpr size_t Arg = 0;
    std::printf("%-16s  %-10s  %8.4f  %10llu  %s\n", Key, "paper",
                Paper.Stats.SolveSeconds,
                static_cast<unsigned long long>(
                    Paper.Stats.ProcedureIterations),
                printGrammarInline(Paper.QueryOutput[Arg], *Paper.Syms)
                    .c_str());
    std::fflush(stdout);
  }
  std::printf("\nType-database extension (paper's conclusion): AR1 with "
              "the expression type pre-registered\n");
  {
    const BenchmarkProgram *B = findBenchmark("AR1");
    AnalyzerOptions Opts;
    Opts.TypeDatabase.push_back(
        "T ::= *(T1,T2) | +(T,T1) | cst(Any) | par(T) | var(Any).\n"
        "T1 ::= *(T1,T2) | cst(Any) | par(T) | var(Any).\n"
        "T2 ::= cst(Any) | par(T) | var(Any).");
    AnalysisResult R = runBenchmark(*B, Opts);
    AnalysisResult Plain = runBenchmark(*B);
    std::printf("  with database: %.4fs (%llu database hits), plain: "
                "%.4fs\n\n",
                R.Stats.SolveSeconds,
                static_cast<unsigned long long>(R.WStats.DatabaseHits),
                Plain.Stats.SolveSeconds);
  }
}

/// Widening hot-loop counters for the widening-heavy Table 3 programs:
/// how many correspondence walks ran, how many clashes they found, which
/// transform rules fired, and how the pf-set interner behaved.
static void printHotLoopCounters() {
  std::printf("--- widening hot-loop counters (uncapped runs) ---\n");
  std::printf("%-5s %6s %7s %8s %7s %6s %8s %8s\n", "prog", "widen",
              "walks", "clashes", "cycles", "repl", "pfHit%", "pfSets");
  for (const char *Key : {"PR", "RE", "BR", "KA"}) {
    const BenchmarkProgram *B = findBenchmark(Key);
    AnalysisResult R = runBenchmark(*B);
    const WideningStats &W = R.WStats;
    double PfHit = 100.0 * R.Stats.pfSetHitRate();
    std::printf("%-5s %6llu %7llu %8llu %7llu %6llu %7.1f%% %8llu\n",
                Key, (unsigned long long)W.Invocations,
                (unsigned long long)W.ClashWalks,
                (unsigned long long)W.Clashes,
                (unsigned long long)W.CycleIntroductions,
                (unsigned long long)W.Replacements, PfHit,
                (unsigned long long)R.Stats.PfSetMisses);
  }
  std::printf("\n");
}

/// Allocations per warm widening on the deepest graph pairs the PR and
/// RE analyses actually produce. "Warm" is the steady state of the
/// fixpoint engine: the operand pair has been widened once, so the op
/// cache answers from the memo and the only remaining cost is two O(1)
/// intern tag-compares and a copy-on-write value handoff — which must
/// not allocate. This is a real gate: returns false (and the harness
/// exits non-zero, failing the CI step that runs it) when a pair
/// exceeds 1 alloc/op.
static bool printWarmWidenAllocs() {
  bool Ok = true;
  std::printf("--- warm widenOf allocations/op (worst-case pairs) ---\n");
  for (const char *Key : {"PR", "RE"}) {
    const BenchmarkProgram *B = findBenchmark(Key);
    AnalysisResult R = runBenchmark(*B);
    std::vector<TypeGraph> Graphs;
    for (const PredicateSummary &S : R.Summaries) {
      for (const ArgInfo &A : S.Input)
        if (!A.Graph.isBottomGraph())
          Graphs.push_back(A.Graph);
      for (const ArgInfo &A : S.Output)
        if (!A.Graph.isBottomGraph())
          Graphs.push_back(A.Graph);
    }
    std::stable_sort(Graphs.begin(), Graphs.end(),
                     [](const TypeGraph &A, const TypeGraph &B) {
                       return A.sizeMetric() > B.sizeMetric();
                     });
    if (Graphs.size() < 2) {
      std::printf("  %s: not enough graphs harvested\n", Key);
      Ok = false;
      continue;
    }
    OpCache Ops(*R.Syms, NormalizeOptions{});
    WideningOptions WOpts;
    WideningStats WS;
    const TypeGraph &Old = Graphs[1]; // second-deepest as the old iterate
    const TypeGraph &New = Graphs[0]; // deepest as the new one
    TypeGraph First = Ops.widenOf(Old, New, WOpts, &WS); // warm the memo
    benchmark::DoNotOptimize(First.numNodes());
    constexpr int Reps = 1000;
    uint64_t Start = GAllocs;
    for (int I = 0; I != Reps; ++I) {
      TypeGraph W = Ops.widenOf(Old, New, WOpts, &WS);
      benchmark::DoNotOptimize(W.numNodes());
    }
    double PerOp = double(GAllocs - Start) / Reps;
    std::printf("  %s: pair sizes %llu/%llu, warm widenOf: %.3f allocs/op "
                "(%s)\n",
                Key, (unsigned long long)Old.sizeMetric(),
                (unsigned long long)New.sizeMetric(), PerOp,
                PerOp <= 1.0 ? "ok, <= 1" : "EXCEEDS the 1 alloc/op gate");
    Ok = Ok && PerOp <= 1.0;
  }
  std::printf("\n");
  return Ok;
}

static void BM_WidenStrategy(benchmark::State &State,
                             const std::string &Key, WidenMode Mode) {
  const BenchmarkProgram *B = findBenchmark(Key);
  AnalyzerOptions Opts;
  Opts.Widening = Mode;
  for (auto _ : State) {
    AnalysisResult R = analyzeProgram(B->Source, B->GoalSpec, Opts);
    benchmark::DoNotOptimize(R.QuerySucceeds);
  }
}

int main(int argc, char **argv) {
  printAblation();
  printHotLoopCounters();
  if (!printWarmWidenAllocs())
    return 1; // the steady-state allocation gate failed
  for (const char *Key : {"nreverse", "process", "AR1"}) {
    benchmark::RegisterBenchmark(
        (std::string("BM_Widen/paper/") + Key).c_str(), BM_WidenStrategy,
        std::string(Key), WidenMode::Paper);
    benchmark::RegisterBenchmark(
        (std::string("BM_Widen/depthk/") + Key).c_str(),
        BM_WidenStrategy, std::string(Key), WidenMode::DepthK);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
