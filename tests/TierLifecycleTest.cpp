//===- tests/TierLifecycleTest.cpp - Tier lifecycle contract tests --------==//
///
/// \file
/// The managed cache-tier lifecycle (runtime/SharedCache.h promotion and
/// compaction, runtime/TierLifecycle.h control plane, and the
/// RelocationTable currency of support/Relocation.h). The load-bearing
/// property throughout: every tier configuration — fresh, stacked,
/// promoted, compacted — serves bit-identical analysis results, because
/// cached entries are exact pure functions of operand languages. The
/// differential test below runs every Section 9 program against all
/// four configurations and is gated in ctest.
///
//===----------------------------------------------------------------------===//

#include "runtime/TierLifecycle.h"

#include "core/Report.h"
#include "programs/Benchmarks.h"
#include "runtime/AnalysisService.h"
#include "support/Relocation.h"

#include <gtest/gtest.h>

#include <map>
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

/// A query variant the published-goal warmup never sees: its entries
/// reach the tier only through the promotion path.
AnalysisJob variantJob(const char *Key, const char *Spec) {
  const BenchmarkProgram *B = findBenchmark(Key);
  std::string Goal = B->GoalSpec;
  size_t Pos = Goal.find("any");
  EXPECT_NE(Pos, std::string::npos);
  Goal.replace(Pos, 3, Spec);
  return {std::string(Key) + "#" + Spec, B->Source, Goal};
}

/// A program with functors no Section 9 program uses — tier entries that
/// go stale the moment nothing re-runs it.
AnalysisJob churnJob(unsigned N) {
  std::string S = std::to_string(N);
  return {"churn#" + S,
          "p([]).\n"
          "p([soak_t" + S + "(X)|T]) :- q(X), p(T).\n"
          "q(soak_t" + S + "(a_" + S + ")).\n"
          "q(b_" + S + ").\n",
          "p(any)"};
}

AnalysisResult runOver(const AnalysisJob &J,
                       std::shared_ptr<const SharedCache> Tier,
                       bool CollectDelta = false, uint32_t MinHits = 0) {
  AnalyzerOptions Opts;
  Opts.Shared = std::move(Tier);
  Opts.CollectDelta = CollectDelta;
  Opts.DeltaMinHits = MinHits;
  return analyzeProgram(J.Source, J.GoalSpec, Opts);
}

std::shared_ptr<const SharedCache> buildTier(
    const std::vector<AnalysisJob> &Warmup,
    std::shared_ptr<const SharedCache> Prev = nullptr) {
  AnalyzerOptions Opts;
  Opts.Shared = std::move(Prev);
  std::string Err;
  std::shared_ptr<const SharedCache> T =
      SharedCache::build(Warmup, Opts, &Err);
  EXPECT_NE(T, nullptr) << Err;
  return T;
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

/// The tentpole's acceptance differential: each Section 9 program,
/// analyzed over (a) no tier, (b) the warmed tier, (c) a tier stacked on
/// a previous tier, (d) a promotion refreeze, (e) a compaction rebuild —
/// five bit-identical fingerprints.
TEST(TierLifecycleTest, FreshStackedPromotedCompactedAreBitIdentical) {
  std::vector<AnalysisJob> Jobs = section9Jobs();
  // (b) warm on the first half, (c) stack the second half on top.
  std::vector<AnalysisJob> FirstHalf(Jobs.begin(),
                                     Jobs.begin() + Jobs.size() / 2);
  std::vector<AnalysisJob> SecondHalf(Jobs.begin() + Jobs.size() / 2,
                                      Jobs.end());
  std::shared_ptr<const SharedCache> Warmed = buildTier(Jobs);
  std::shared_ptr<const SharedCache> Stacked =
      buildTier(SecondHalf, buildTier(FirstHalf));

  // (d) promote a variant job's harvested delta onto the warmed tier.
  AnalysisJob Variant = variantJob("QU", "list");
  AnalysisResult VarRun = runOver(Variant, Warmed, /*CollectDelta=*/true);
  ASSERT_TRUE(VarRun.Ok);
  ASSERT_NE(VarRun.Delta, nullptr)
      << "an unwarmed variant must leave a non-empty delta";
  std::shared_ptr<const SharedCache> Promoted =
      Warmed->promoteAndRefreeze({VarRun.Delta});
  EXPECT_GT(Promoted->stats().AbsorbedEntries, 0u);
  EXPECT_GE(Promoted->stats().Graphs, Warmed->stats().Graphs);

  // (e) compact the promoted tier: touch everything the Section 9 jobs
  // need in a new generation, then drop the rest.
  Promoted->ops()->Intern->advanceGeneration();
  for (const AnalysisJob &J : Jobs)
    ASSERT_TRUE(runOver(J, Promoted).Ok);
  CompactionPolicy CP;
  CP.KeepGens = 0;
  std::shared_ptr<const SharedCache> Compacted =
      Promoted->compactAndRefreeze(CP);

  for (const AnalysisJob &J : Jobs) {
    AnalysisResult Cold = analyzeProgram(J.Source, J.GoalSpec);
    ASSERT_TRUE(Cold.Ok) << J.Key;
    const std::string Want = fingerprint(Cold);
    EXPECT_EQ(Want, fingerprint(runOver(J, Warmed))) << J.Key << " warmed";
    EXPECT_EQ(Want, fingerprint(runOver(J, Stacked))) << J.Key << " stacked";
    EXPECT_EQ(Want, fingerprint(runOver(J, Promoted))) << J.Key << " promoted";
    EXPECT_EQ(Want, fingerprint(runOver(J, Compacted)))
        << J.Key << " compacted";
  }
}

TEST(TierLifecycleTest, PromotionMakesAVariantsEntriesShared) {
  std::shared_ptr<const SharedCache> Tier = buildTier(section9Jobs());
  AnalysisJob Variant = variantJob("PG", "list");

  AnalysisResult Before = runOver(Variant, Tier, /*CollectDelta=*/true);
  ASSERT_TRUE(Before.Ok);
  ASSERT_NE(Before.Delta, nullptr);
  EXPECT_GT(Before.Delta->entryCount(), 0u);
  EXPECT_GT(Before.Stats.OpCacheMisses, 0u)
      << "the unwarmed variant must compute something fresh";

  std::shared_ptr<const SharedCache> Promoted =
      Tier->promoteAndRefreeze({Before.Delta});
  AnalysisResult After = runOver(Variant, Promoted);
  ASSERT_TRUE(After.Ok);
  EXPECT_EQ(fingerprint(Before), fingerprint(After));
  EXPECT_GT(After.Stats.OpCacheSharedHits, Before.Stats.OpCacheSharedHits)
      << "promoted entries must resolve from the tier";
  EXPECT_LT(After.Stats.OpCacheMisses, Before.Stats.OpCacheMisses);

  // Null and repeated deltas are tolerated; absorbing the same delta
  // twice adds nothing the second time.
  std::shared_ptr<const SharedCache> Again =
      Promoted->promoteAndRefreeze({nullptr, Before.Delta});
  EXPECT_EQ(Again->stats().Graphs, Promoted->stats().Graphs);
}

TEST(TierLifecycleTest, CompactionDropsUntouchedAndFillsTheRelocationTable) {
  // Tier = Section 9 + a churn program's entries (via promotion).
  std::shared_ptr<const SharedCache> Base = buildTier(section9Jobs());
  AnalysisResult Churn =
      runOver(churnJob(1), Base, /*CollectDelta=*/true);
  ASSERT_TRUE(Churn.Ok);
  ASSERT_NE(Churn.Delta, nullptr);
  std::shared_ptr<const SharedCache> Tier =
      Base->promoteAndRefreeze({Churn.Delta});
  const uint32_t OldSize = Tier->ops()->Intern->size();

  // New generation; only the Section 9 jobs run, so the churn entries
  // (and any warmup entries the jobs no longer need) go stale.
  Tier->ops()->Intern->advanceGeneration();
  for (const AnalysisJob &J : section9Jobs())
    ASSERT_TRUE(runOver(J, Tier).Ok);

  CompactionPolicy CP;
  CP.KeepGens = 0;
  RelocationTable<CanonId> Reloc(0);
  std::shared_ptr<const SharedCache> Compacted =
      Tier->compactAndRefreeze(CP, &Reloc);

  EXPECT_EQ(Reloc.size(), OldSize);
  EXPECT_GT(Compacted->stats().DroppedGraphs, 0u)
      << "the churn entries were not touched and must be dropped";
  EXPECT_EQ(Compacted->stats().DroppedGraphs + Reloc.liveCount(), OldSize);
  EXPECT_LT(Compacted->stats().Graphs, Tier->stats().Graphs);
  EXPECT_LE(Compacted->tierBytes(), Tier->tierBytes());

  // The relocation table is the old->new id dictionary: re-interning a
  // surviving old-tier graph against the compacted tier must land on
  // exactly the mapped id.
  const FrozenInternTier &OldIT = *Tier->ops()->Intern;
  SymbolTable Syms = Compacted->symbols();
  GraphInterner Probe(Syms, Compacted->ops()->Intern);
  uint32_t Checked = 0;
  for (CanonId Old = 0; Old != OldSize; ++Old) {
    if (!Reloc.live(Old))
      continue;
    TypeGraph Copy = OldIT.Canon[Old]; // copy: intern writes its caches
    EXPECT_EQ(Probe.intern(Copy), Reloc.map(Old)) << "old id " << Old;
    ++Checked;
  }
  EXPECT_EQ(Checked, Reloc.liveCount());

  // Dropped ids answer live() = false and keep the sentinel.
  bool SawDropped = false;
  for (CanonId Old = 0; Old != OldSize; ++Old)
    SawDropped = SawDropped || !Reloc.live(Old);
  EXPECT_TRUE(SawDropped);
}

TEST(TierLifecycleTest, LifecycleRotatesTiersAcrossBatchesUnchanged) {
  std::vector<AnalysisJob> Jobs = section9Jobs();
  std::map<std::string, std::string> Oracle;
  for (const AnalysisJob &J : Jobs)
    Oracle[J.Key] = fingerprint(analyzeProgram(J.Source, J.GoalSpec));

  LifecyclePolicy LP;
  LP.PromoteMinHits = 0; // promote everything a job computes
  LP.CompactEvery = 2;
  LP.KeepGens = 1;
  TierLifecycle L(buildTier(Jobs), LP);

  for (unsigned Gen = 0; Gen != 4; ++Gen) {
    std::vector<AnalysisJob> Batch = Jobs;
    Batch.push_back(churnJob(100 + Gen));
    std::string ChurnWant = fingerprint(
        analyzeProgram(Batch.back().Source, Batch.back().GoalSpec));

    // One service wave per generation, over the tier the lifecycle
    // installed after the previous wave.
    ServiceOptions SO;
    SO.Workers = 4;
    SO.Shared = L.current();
    SO.CollectDeltas = true;
    SO.DeltaMinHits = LP.PromoteMinHits;
    AnalysisService Svc(SO);
    std::vector<JobOutcome> Out = runBatch(Svc, Batch);
    ASSERT_EQ(Out.size(), Batch.size());
    for (size_t I = 0; I != Jobs.size(); ++I)
      EXPECT_EQ(Oracle[Batch[I].Key], fingerprint(Out[I].Result))
          << Batch[I].Key << " at generation " << Gen;
    EXPECT_EQ(ChurnWant, fingerprint(Out.back().Result))
        << "churn at generation " << Gen;
    L.endBatch(Out);
  }
  EXPECT_EQ(L.stats().Batches, 4u);
  EXPECT_GT(L.stats().Promotions, 0u);
  EXPECT_GT(L.stats().Compactions, 0u) << "cadence = 2 over 4 batches";
  EXPECT_GT(L.stats().DroppedGraphs, 0u)
      << "each generation's churn must eventually be dropped";
}

TEST(TierLifecycleTest, ByteBudgetForcesEvictionDownToTheWorkingSet) {
  std::vector<AnalysisJob> Jobs = section9Jobs();
  std::shared_ptr<const SharedCache> Tier = buildTier(Jobs);

  LifecyclePolicy LP;
  LP.PromoteMinHits = 0;
  LP.CompactEvery = 0; // budget only
  LP.KeepGens = 1;
  // A budget below the warmed tier's footprint: the first endBatch must
  // evict. The working set of one small program is far below it after.
  LP.MaxTierBytes = Tier->tierBytes() / 2;
  TierLifecycle L(Tier, LP);

  // One batch touching a single program; everything else goes stale.
  AnalysisJob Small{"QU", findBenchmark("QU")->Source,
                    findBenchmark("QU")->GoalSpec};
  // Two generations of touches so KeepGens = 1 has history to act on.
  for (int Round = 0; Round != 2; ++Round) {
    JobOutcome O;
    O.Result = runOver(Small, L.current(), /*CollectDelta=*/true, 0);
    ASSERT_TRUE(O.Result.Ok);
    L.endBatch({O});
  }
  EXPECT_GT(L.stats().Evictions, 0u);
  EXPECT_LT(L.current()->tierBytes(), Tier->tierBytes());
  EXPECT_LE(L.current()->tierBytes(), LP.MaxTierBytes)
      << "one program's working set fits well under half the full tier";

  // The shrunken tier still serves exact results.
  AnalysisResult Cold = analyzeProgram(Small.Source, Small.GoalSpec);
  EXPECT_EQ(fingerprint(Cold), fingerprint(runOver(Small, L.current())));
}

} // namespace
