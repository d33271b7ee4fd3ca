//===- tests/ServiceBatchTest.cpp - Batch waves over the shared tier -----==//
///
/// \file
/// The batch shape of the AnalysisService (runBatch: submit every job,
/// wait for every ticket) over the frozen shared cache tier
/// (runtime/SharedCache.h): on any number of workers, in any scheduling
/// order, results are bit-identical to a cold sequential analyzeProgram
/// run. It also covers the tier mechanics: id-space layering and
/// compatibility gating.
///
//===----------------------------------------------------------------------===//

#include "runtime/AnalysisService.h"

#include "core/Report.h"
#include "programs/Benchmarks.h"
#include "typegraph/GrammarParser.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

using namespace gaia;

namespace {

std::string fingerprint(const AnalysisResult &R) {
  return analysisFingerprint(R);
}

std::vector<AnalysisJob> section9Jobs() {
  std::vector<AnalysisJob> Jobs;
  for (const BenchmarkProgram &B : table123Suite())
    Jobs.push_back({B.Key, B.Source, B.GoalSpec});
  return Jobs;
}

class ServiceBatchTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    std::string Err;
    Cache = SharedCache::build(section9Jobs(), AnalyzerOptions{}, &Err);
    ASSERT_NE(Cache, nullptr) << Err;
  }
  static void TearDownTestSuite() { Cache.reset(); }

  /// Batch-wave options: \p Workers threads over \p Shared, Block
  /// admission (the default), no deadline.
  static ServiceOptions batchOptions(uint32_t Workers,
                                     std::shared_ptr<const SharedCache>
                                         Shared) {
    ServiceOptions SO;
    SO.Workers = Workers;
    SO.Shared = std::move(Shared);
    return SO;
  }

  static std::shared_ptr<const SharedCache> Cache;
};

std::shared_ptr<const SharedCache> ServiceBatchTest::Cache;

TEST_F(ServiceBatchTest, BuildPopulatesTheTier) {
  const SharedCache::BuildStats &St = Cache->stats();
  EXPECT_EQ(St.WarmupJobs, table123Suite().size());
  EXPECT_TRUE(St.AllConverged);
  EXPECT_GT(St.Graphs, 100u) << "warmup should intern hundreds of languages";
  EXPECT_GT(St.OpResults, 1000u);
  EXPECT_GT(St.Symbols, 0u);
  EXPECT_EQ(Cache->ops()->Intern->size(), St.Graphs);
}

TEST_F(ServiceBatchTest, SharedTierRunsAreBitIdenticalToColdRuns) {
  for (const BenchmarkProgram &B : table123Suite()) {
    AnalysisResult Cold = analyzeProgram(B.Source, B.GoalSpec);
    AnalyzerOptions WithTier;
    WithTier.Shared = Cache;
    AnalysisResult Tiered = analyzeProgram(B.Source, B.GoalSpec, WithTier);
    ASSERT_TRUE(Cold.Ok && Tiered.Ok) << B.Key;
    EXPECT_EQ(fingerprint(Cold), fingerprint(Tiered)) << B.Key;
    // The warmup ran exactly this job, so the tier must resolve a large
    // share of its operations.
    EXPECT_GT(Tiered.Stats.OpCacheSharedHits, 0u) << B.Key;
    EXPECT_EQ(Cold.Stats.OpCacheSharedHits, 0u);
  }
}

TEST_F(ServiceBatchTest, BatchResultsMatchSequentialOnEveryWorkerCount) {
  std::vector<AnalysisJob> Jobs = section9Jobs();
  // Two waves of the batch, interleaved, so workers contend.
  std::vector<AnalysisJob> Batch;
  for (const AnalysisJob &J : Jobs) {
    Batch.push_back(J);
    Batch.push_back(J);
  }
  std::vector<std::string> Oracle;
  for (const AnalysisJob &J : Batch)
    Oracle.push_back(fingerprint(analyzeProgram(J.Source, J.GoalSpec)));

  for (uint32_t Workers : {1u, 4u, 8u}) {
    AnalysisService Svc(batchOptions(Workers, Cache));
    EXPECT_EQ(Svc.workers(), Workers);
    BatchStats St;
    std::vector<JobOutcome> Out = runBatch(Svc, Batch, &St);
    ASSERT_EQ(Out.size(), Batch.size());
    EXPECT_TRUE(St.AllOk);
    EXPECT_TRUE(St.AllConverged);
    EXPECT_EQ(St.Jobs, Batch.size());
    EXPECT_GT(St.SharedHits, 0u);
    for (size_t I = 0; I != Out.size(); ++I)
      EXPECT_EQ(Oracle[I], fingerprint(Out[I].Result))
          << Batch[I].Key << " on " << Workers << " workers";
  }
}

TEST_F(ServiceBatchTest, EmptyBatchAndRepeatedRunsAreFine) {
  AnalysisService Svc(batchOptions(2, Cache));
  BatchStats St;
  EXPECT_TRUE(runBatch(Svc, {}, &St).empty());
  EXPECT_EQ(St.Jobs, 0u);
  // Several waves through one service: threads are reused.
  std::vector<AnalysisJob> One{{"QU", findBenchmark("QU")->Source,
                                findBenchmark("QU")->GoalSpec}};
  for (int I = 0; I != 3; ++I) {
    std::vector<JobOutcome> Out = runBatch(Svc, One, &St);
    ASSERT_EQ(Out.size(), 1u);
    EXPECT_TRUE(Out[0].Result.Ok);
  }
  EXPECT_EQ(Svc.stats().Completed, 3u);
}

TEST_F(ServiceBatchTest, IncompatibleOptionsBypassTheTierSoundly) {
  const BenchmarkProgram *B = findBenchmark("KA");
  AnalyzerOptions Capped;
  Capped.OrCap = 2;
  AnalysisResult Cold = analyzeProgram(B->Source, B->GoalSpec, Capped);
  Capped.Shared = Cache; // built with OrCap = 0: incompatible
  EXPECT_FALSE(Cache->compatibleWith(Capped));
  AnalysisResult Tiered = analyzeProgram(B->Source, B->GoalSpec, Capped);
  EXPECT_EQ(fingerprint(Cold), fingerprint(Tiered));
  EXPECT_EQ(Tiered.Stats.OpCacheSharedHits, 0u)
      << "an incompatible tier must not be consulted";

  AnalyzerOptions Compatible;
  Compatible.Shared = Cache;
  EXPECT_TRUE(Cache->compatibleWith(Compatible));
  AnalyzerOptions PF;
  PF.Domain = DomainKind::PrincipalFunctors;
  PF.Shared = Cache;
  EXPECT_FALSE(Cache->compatibleWith(PF));
  AnalysisResult PFRun = analyzeProgram(B->Source, B->GoalSpec, PF);
  EXPECT_TRUE(PFRun.Ok) << PFRun.Error;
}

/// The malformed-input pin: one bad program in a 100-job batch fails
/// alone — a structured per-job FailKind::ParseError with the parser's
/// message and line — while the other 99 jobs stay bit-identical to
/// their oracle runs. The batch is larger than the admission queue, so
/// submission also exercises Block-policy backpressure.
TEST_F(ServiceBatchTest, OneMalformedJobFailsAloneInA100JobBatch) {
  std::vector<AnalysisJob> Good = section9Jobs();
  std::vector<AnalysisJob> Batch;
  size_t BadIndex = 57;
  while (Batch.size() < 100) {
    if (Batch.size() == BadIndex)
      Batch.push_back({"bad", "p(a).\nq(X) :- r(X,.\n", "p(any)"});
    else
      Batch.push_back(Good[Batch.size() % Good.size()]);
  }
  std::vector<std::string> Oracle(Batch.size());
  for (size_t I = 0; I != Batch.size(); ++I)
    if (I != BadIndex)
      Oracle[I] = fingerprint(analyzeProgram(Batch[I].Source,
                                             Batch[I].GoalSpec));

  ServiceOptions SO = batchOptions(4, Cache);
  ASSERT_LT(SO.QueueCapacity, Batch.size());
  AnalysisService Svc(SO);
  BatchStats St;
  std::vector<JobOutcome> Out = runBatch(Svc, Batch, &St);
  ASSERT_EQ(Out.size(), Batch.size());

  EXPECT_FALSE(St.AllOk);
  EXPECT_EQ(St.Failed, 1u);
  EXPECT_NE(St.FirstError.find("bad: "), std::string::npos) << St.FirstError;

  const AnalysisResult &Bad = Out[BadIndex].Result;
  EXPECT_FALSE(Bad.Ok);
  EXPECT_EQ(Bad.Fail, FailKind::ParseError);
  EXPECT_EQ(Bad.FailLine, 2u);
  EXPECT_NE(Bad.Error.find("line 2"), std::string::npos) << Bad.Error;

  for (size_t I = 0; I != Out.size(); ++I) {
    if (I == BadIndex)
      continue;
    EXPECT_TRUE(Out[I].Result.Ok) << Batch[I].Key;
    EXPECT_EQ(Oracle[I], fingerprint(Out[I].Result))
        << Batch[I].Key << " at index " << I;
  }
  EXPECT_EQ(Svc.stats().RejectedQueueFull, 0u)
      << "Block admission refuses nothing";
}

TEST_F(ServiceBatchTest, WorkerInternersShareTierIdsAndNeverAliasDeltas) {
  std::shared_ptr<const FrozenInternTier> Tier = Cache->ops()->Intern;
  CanonId Base = Tier->size();

  // Two independent "workers" over one tier.
  SymbolTable SymsA = Cache->symbols();
  SymbolTable SymsB = Cache->symbols();
  GraphInterner A(SymsA, Tier);
  GraphInterner B(SymsB, Tier);

  // A language the warmup certainly saw (the any-list flows through
  // every list program) resolves to the same shared id in both.
  std::string Err;
  std::optional<TypeGraph> ListA =
      parseGrammar("T ::= [] | cons(Any, T).", SymsA, &Err);
  std::optional<TypeGraph> ListB =
      parseGrammar("T ::= [] | cons(Any, T).", SymsB, &Err);
  ASSERT_TRUE(ListA && ListB);
  TypeGraph NA = normalizeGraph(*ListA, SymsA);
  TypeGraph NB = normalizeGraph(*ListB, SymsB);
  CanonId IdA = A.intern(NA);
  CanonId IdB = B.intern(NB);
  EXPECT_EQ(IdA, IdB);
  EXPECT_LT(IdA, Base);
  EXPECT_GT(A.stats().SharedHits, 0u);

  // A language no Section 9 program produces gets a *private* id at or
  // beyond the tier size in both workers — delta ids never collide with
  // tier ids, and the two deltas are independent.
  std::optional<TypeGraph> NovelA = parseGrammar(
      "T ::= zz9_unique(Int, Int, Int, Int).", SymsA, &Err);
  std::optional<TypeGraph> NovelB = parseGrammar(
      "T ::= zz9_unique(Int, Int, Int, Int).", SymsB, &Err);
  ASSERT_TRUE(NovelA && NovelB);
  CanonId PrivA = A.intern(normalizeGraph(*NovelA, SymsA));
  CanonId PrivB = B.intern(normalizeGraph(*NovelB, SymsB));
  EXPECT_GE(PrivA, Base);
  EXPECT_GE(PrivB, Base);
  EXPECT_EQ(A.graph(PrivA).numNodes(), B.graph(PrivB).numNodes());
  EXPECT_EQ(A.size(), Base + A.deltaSize());
}

} // namespace
