//===- tests/SharedCacheStressTest.cpp - Concurrent frozen-tier stress ----==//
///
/// \file
/// Hammers one frozen shared cache tier from 8 threads with randomized,
/// interleaved graph operations and checks every result against a
/// single-threaded uncached oracle. The tier is advertised as safe for
/// unsynchronized concurrent reads; this suite is the test CI runs under
/// ThreadSanitizer (-DGAIA_SANITIZE=thread) to police that claim — any
/// lazily-mutated field left in the frozen structures (signature caches,
/// intern tags, rank memos) shows up here as a data race.
///
/// Determinism scheme: thread K runs operation sequence K derived from a
/// fixed seed, entirely on its own SymbolTable copy and delta OpCache;
/// only the frozen tier is shared. The oracle precomputes all sequences
/// with the raw (uncached) graph operations, and results are compared as
/// printed grammars (name-based, so independent of functor-id layout).
///
//===----------------------------------------------------------------------===//

#include "runtime/SharedCache.h"

#include "core/Report.h"
#include "programs/Benchmarks.h"
#include "typegraph/GrammarParser.h"
#include "typegraph/GrammarPrinter.h"
#include "typegraph/GraphOps.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <thread>

using namespace gaia;

namespace {

constexpr unsigned NumThreads = 8;
/// Per-sequence operation count. Sized so the suite stays in tier-1
/// budget even single-core and under TSan's ~10x slowdown; raise via
/// GAIA_STRESS_OPS for a longer soak.
constexpr unsigned DefaultOpsPerThread = 400;

unsigned opsPerThread() {
  if (const char *E = std::getenv("GAIA_STRESS_OPS"))
    return static_cast<unsigned>(std::strtoul(E, nullptr, 10));
  return DefaultOpsPerThread;
}

/// Grammar pool: a mix of languages the Section 9 warmup produces
/// (frozen-tier hits) and languages it never sees (delta misses).
const char *GrammarPool[] = {
    "T ::= Any.",
    "T ::= Int.",
    "T ::= [] | cons(Any, T).",
    "T ::= [] | cons(Int, T).",
    "T ::= [].",
    "T ::= a | b.",
    "T ::= f(Int, Any).",
    "T ::= a | f(T, Int).",
    "T ::= [] | cons(f(Int), T).",
    "T ::= g(g(g(Int))).",
    "T ::= stress_only(Any) | other_stress(Int, T).",
};
constexpr unsigned PoolSize = sizeof(GrammarPool) / sizeof(GrammarPool[0]);

/// Minimal deterministic PRNG (threads and oracle must agree exactly;
/// implementation-defined std engines would do, but this is explicit).
struct Lcg {
  uint64_t State;
  explicit Lcg(uint64_t Seed) : State(Seed * 2862933555777941757ULL + 1) {}
  uint32_t next(uint32_t Bound) {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<uint32_t>((State >> 33) % Bound);
  }
};

struct OpEnv {
  SymbolTable Syms;
  std::vector<TypeGraph> Pool;

  explicit OpEnv(const SharedCache &Cache) : Syms(Cache.symbols()) {
    for (const char *G : GrammarPool) {
      std::string Err;
      std::optional<TypeGraph> Parsed = parseGrammar(G, Syms, &Err);
      if (!Parsed)
        ADD_FAILURE() << G << ": " << Err;
      else
        Pool.push_back(normalizeGraph(*Parsed, Syms));
    }
  }
};

/// Runs sequence \p Seq; each step appends one printed result line.
/// \p Cached uses a delta OpCache over the frozen tier; the oracle
/// passes null and computes with the raw operations.
std::vector<std::string> runSequence(OpEnv &Env, unsigned Seq,
                                     OpCache *Cached) {
  NormalizeOptions Norm;
  WideningOptions WOpts;
  WOpts.Norm = Norm;
  std::vector<std::string> Log;
  // Results feed back as operands, so sequences exercise graphs beyond
  // the initial pool (ring buffer keeps memory bounded).
  std::vector<TypeGraph> Ring = Env.Pool;
  auto Pick = [&](Lcg &R) -> const TypeGraph & {
    return Ring[R.next(static_cast<uint32_t>(Ring.size()))];
  };
  auto Keep = [&](TypeGraph G) {
    Ring[Ring.size() - 1 - (Log.size() % PoolSize)] = std::move(G);
  };
  Lcg R(0x9a1a0000 + Seq);
  const unsigned Ops = opsPerThread();
  for (unsigned I = 0; I != Ops; ++I) {
    switch (R.next(6)) {
    case 0: {
      const TypeGraph &A = Pick(R), &B = Pick(R);
      TypeGraph G = Cached ? Cached->unionOf(A, B)
                           : graphUnion(A, B, Env.Syms, Norm);
      Log.push_back("u " + printGrammarInline(G, Env.Syms));
      Keep(std::move(G));
      break;
    }
    case 1: {
      const TypeGraph &A = Pick(R), &B = Pick(R);
      TypeGraph G = Cached ? Cached->intersectOf(A, B)
                           : graphIntersect(A, B, Env.Syms, Norm);
      Log.push_back("i " + printGrammarInline(G, Env.Syms));
      Keep(std::move(G));
      break;
    }
    case 2: {
      const TypeGraph &A = Pick(R), &B = Pick(R);
      bool Inc = Cached ? Cached->includes(A, B)
                        : graphIncludes(A, B, Env.Syms);
      Log.push_back(Inc ? "inc 1" : "inc 0");
      break;
    }
    case 3: {
      const TypeGraph &A = Pick(R), &B = Pick(R);
      TypeGraph G = Cached ? Cached->widenOf(A, B, WOpts, nullptr)
                           : graphWiden(A, B, Env.Syms, WOpts, nullptr);
      Log.push_back("w " + printGrammarInline(G, Env.Syms));
      Keep(std::move(G));
      break;
    }
    case 4: {
      const TypeGraph &V = Pick(R);
      std::vector<TypeGraph> Args;
      bool Ok = Cached
                    ? Cached->restrictOf(V, Env.Syms.consFunctor(), Args)
                    : graphRestrict(V, Env.Syms.consFunctor(), Env.Syms,
                                    Norm, Args);
      std::string Line = Ok ? "r" : "r!";
      for (const TypeGraph &A : Args)
        Line += " " + printGrammarInline(A, Env.Syms);
      Log.push_back(std::move(Line));
      break;
    }
    case 5: {
      std::vector<TypeGraph> Args{Pick(R), Pick(R)};
      FunctorId Fn = Env.Syms.consFunctor();
      TypeGraph G = Cached ? Cached->constructOf(Fn, Args)
                           : graphConstruct(Fn, Args, Env.Syms, Norm);
      Log.push_back("c " + printGrammarInline(G, Env.Syms));
      Keep(std::move(G));
      break;
    }
    }
  }
  return Log;
}

TEST(SharedCacheStressTest, EightThreadsOverOneFrozenTierMatchTheOracle) {
  // Freeze a tier from a few list-heavy Section 9 programs, so the
  // stress pool overlaps the tier's languages.
  std::vector<AnalysisJob> Warmup;
  for (const char *Key : {"QU", "DS", "PL", "BR"}) {
    const BenchmarkProgram *B = findBenchmark(Key);
    ASSERT_NE(B, nullptr);
    Warmup.push_back({B->Key, B->Source, B->GoalSpec});
  }
  std::string Err;
  std::shared_ptr<const SharedCache> Cache =
      SharedCache::build(Warmup, AnalyzerOptions{}, &Err);
  ASSERT_NE(Cache, nullptr) << Err;

  // Oracle: every sequence, computed uncached on the main thread.
  std::vector<std::vector<std::string>> Oracle(NumThreads);
  for (unsigned Seq = 0; Seq != NumThreads; ++Seq) {
    OpEnv Env(*Cache);
    Oracle[Seq] = runSequence(Env, Seq, nullptr);
  }

  // Stress: all sequences concurrently, each on a private delta cache
  // over the one shared frozen tier.
  std::vector<std::vector<std::string>> Got(NumThreads);
  std::vector<uint64_t> SharedHits(NumThreads, 0);
  {
    std::vector<std::thread> Threads;
    for (unsigned Seq = 0; Seq != NumThreads; ++Seq)
      Threads.emplace_back([&, Seq] {
        OpEnv Env(*Cache);
        NormalizeOptions Norm;
        OpCache Delta(Env.Syms, Norm, Cache->ops());
        Got[Seq] = runSequence(Env, Seq, &Delta);
        SharedHits[Seq] = Delta.stats().SharedHits +
                          Delta.interner().stats().SharedHits;
      });
    for (std::thread &T : Threads)
      T.join();
  }

  uint64_t TotalSharedHits = 0;
  for (unsigned Seq = 0; Seq != NumThreads; ++Seq) {
    ASSERT_EQ(Got[Seq].size(), Oracle[Seq].size()) << "sequence " << Seq;
    for (size_t I = 0; I != Got[Seq].size(); ++I)
      ASSERT_EQ(Got[Seq][I], Oracle[Seq][I])
          << "sequence " << Seq << " op " << I;
    TotalSharedHits += SharedHits[Seq];
  }
  EXPECT_GT(TotalSharedHits, 0u)
      << "the stress pool must actually exercise the frozen tier";
}

/// ISSUE-5 satellite: the frozen PfSetInterner tier (part of the frozen
/// op tier since the widening fast-path work) must serve concurrent
/// lookups bit-identically. Every thread runs the same deterministic
/// intern/subset sequence over a private interner layered on the one
/// shared tier; the oracle is the same sequence run sequentially. Under
/// TSan this also polices that tier lookups and subset walks are pure
/// reads.
TEST(SharedCacheStressTest, FrozenPfTierServesConcurrentLookupsBitIdentically) {
  std::vector<AnalysisJob> Warmup;
  for (const char *Key : {"QU", "DS", "PL", "BR"}) {
    const BenchmarkProgram *B = findBenchmark(Key);
    ASSERT_NE(B, nullptr);
    Warmup.push_back({B->Key, B->Source, B->GoalSpec});
  }
  std::string Err;
  std::shared_ptr<const SharedCache> Cache =
      SharedCache::build(Warmup, AnalyzerOptions{}, &Err);
  ASSERT_NE(Cache, nullptr) << Err;
  std::shared_ptr<const FrozenPfTier> Tier = Cache->ops()->Pf;
  ASSERT_NE(Tier, nullptr);
  ASSERT_GT(Tier->size(), 0u) << "warmup must populate the pf tier";
  const uint32_t NumFns = Cache->symbols().numFunctors();

  // One deterministic sequence of intern + subset queries. Private
  // delta ids are deterministic per sequence, so the full log (ids and
  // subset verdicts) must be identical across runs.
  auto RunPf = [&](unsigned Seq) {
    PfSetInterner L(Tier);
    Lcg R(0xBF000 + Seq);
    std::vector<uint64_t> Log;
    std::vector<PfSetId> Ids;
    const unsigned Ops = opsPerThread();
    for (unsigned I = 0; I != Ops; ++I) {
      std::vector<FunctorId> S;
      unsigned N = R.next(5);
      for (unsigned J = 0; J != N; ++J)
        S.push_back(R.next(NumFns));
      std::sort(S.begin(), S.end());
      S.erase(std::unique(S.begin(), S.end()), S.end());
      PfSetId Id = L.intern(S);
      Ids.push_back(Id);
      Log.push_back(Id);
      PfSetId A = Ids[R.next(static_cast<uint32_t>(Ids.size()))];
      PfSetId B = Ids[R.next(static_cast<uint32_t>(Ids.size()))];
      Log.push_back(L.subsetOf(A, B) ? 1 : 0);
    }
    return Log;
  };

  std::vector<std::vector<uint64_t>> Oracle(NumThreads);
  for (unsigned Seq = 0; Seq != NumThreads; ++Seq)
    Oracle[Seq] = RunPf(Seq);

  std::vector<std::vector<uint64_t>> Got(NumThreads);
  {
    std::vector<std::thread> Threads;
    for (unsigned Seq = 0; Seq != NumThreads; ++Seq)
      Threads.emplace_back([&, Seq] { Got[Seq] = RunPf(Seq); });
    for (std::thread &T : Threads)
      T.join();
  }
  for (unsigned Seq = 0; Seq != NumThreads; ++Seq)
    ASSERT_EQ(Got[Seq], Oracle[Seq]) << "pf sequence " << Seq;
}

/// Concurrent *jobs* (full analyses) over one tier — the service
/// workers' inner loop without the service, so TSan sees the analyzer
/// path too.
TEST(SharedCacheStressTest, ConcurrentAnalysesOverOneTierMatchColdRuns) {
  std::vector<AnalysisJob> Warmup;
  for (const BenchmarkProgram &B : table123Suite())
    Warmup.push_back({B.Key, B.Source, B.GoalSpec});
  std::string Err;
  std::shared_ptr<const SharedCache> Cache =
      SharedCache::build(Warmup, AnalyzerOptions{}, &Err);
  ASSERT_NE(Cache, nullptr) << Err;

  std::vector<std::string> Oracle;
  for (const AnalysisJob &J : Warmup) {
    AnalysisResult R = analyzeProgram(J.Source, J.GoalSpec);
    Oracle.push_back(std::to_string(R.Stats.ProcedureIterations) + "/" +
                     std::to_string(R.Stats.ClauseIterations));
  }

  std::vector<std::string> Got(Warmup.size() * 2);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (size_t I = T; I < Got.size(); I += NumThreads) {
        const AnalysisJob &J = Warmup[I % Warmup.size()];
        AnalyzerOptions Opts;
        Opts.Shared = Cache;
        AnalysisResult R = analyzeProgram(J.Source, J.GoalSpec, Opts);
        Got[I] = std::to_string(R.Stats.ProcedureIterations) + "/" +
                 std::to_string(R.Stats.ClauseIterations);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (size_t I = 0; I != Got.size(); ++I)
    EXPECT_EQ(Got[I], Oracle[I % Oracle.size()]) << "job " << I;
}

/// A concurrent wave over a tier built from the published goals: the
/// wave adds "list"/"int" variant goals the tier never saw, so workers
/// mix tier hits with private-delta misses. Every job must match the
/// cold oracle bit-for-bit.
TEST(SharedCacheStressTest, ConcurrentVariantWaveMatchesTheOracle) {
  std::vector<AnalysisJob> Warmup;
  for (const char *Key : {"QU", "DS", "PL", "BR"}) {
    const BenchmarkProgram *B = findBenchmark(Key);
    ASSERT_NE(B, nullptr);
    Warmup.push_back({B->Key, B->Source, B->GoalSpec});
  }
  std::string Err;
  std::shared_ptr<const SharedCache> Cache =
      SharedCache::build(Warmup, AnalyzerOptions{}, &Err);
  ASSERT_NE(Cache, nullptr) << Err;

  // The wave workload: published goals (tier hits) plus "list"/"int"
  // variants (misses in the fresh tier).
  std::vector<AnalysisJob> Jobs = Warmup;
  for (const AnalysisJob &W : Warmup)
    for (const char *Spec : {"list", "int"}) {
      std::string Goal = W.GoalSpec;
      size_t Pos = Goal.find("any");
      if (Pos == std::string::npos)
        continue;
      Goal.replace(Pos, 3, Spec);
      Jobs.push_back({W.Key + "#" + Spec, W.Source, Goal});
    }

  std::vector<std::string> Oracle;
  for (const AnalysisJob &J : Jobs) {
    AnalysisResult R = analyzeProgram(J.Source, J.GoalSpec);
    ASSERT_TRUE(R.Ok) << J.Key << ": " << R.Error;
    Oracle.push_back(analysisFingerprint(R));
  }

  std::vector<std::string> Got(Jobs.size());
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (size_t I = T; I < Jobs.size(); I += NumThreads) {
        AnalyzerOptions Opts;
        Opts.Shared = Cache;
        AnalysisResult R =
            analyzeProgram(Jobs[I].Source, Jobs[I].GoalSpec, Opts);
        Got[I] = analysisFingerprint(R);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (size_t I = 0; I != Jobs.size(); ++I)
    EXPECT_EQ(Got[I], Oracle[I]) << Jobs[I].Key;
}

} // namespace
