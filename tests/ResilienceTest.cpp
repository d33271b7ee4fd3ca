//===- tests/ResilienceTest.cpp - Fault-tolerant serving runtime tests ----==//
///
/// \file
/// The failure-containment contract of the serving runtime: structured
/// failure taxonomy (core/Analyzer.h FailKind), per-job deadlines and
/// cooperative cancellation with the no-trace unwind guarantee, the
/// retry-with-degradation ladder and its quarantine (runtime/
/// Resilience.h), and — in GAIA_FAULT_INJECT builds — the deterministic
/// chaos harness (support/FaultInject.h).
///
//===----------------------------------------------------------------------===//

#include "runtime/Resilience.h"

#include "core/Report.h"
#include "programs/Benchmarks.h"
#include "runtime/AnalysisService.h"
#include "runtime/TierLifecycle.h"
#include "support/FaultInject.h"
#include "typegraph/GraphOps.h"

#include <gtest/gtest.h>

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

/// A configuration that keeps the PR analysis busy for many fixpoint
/// rounds (uncached, so every widening recomputes): long enough that a
/// 1 ms deadline always expires before the fixpoint settles, with polls
/// every round.
AnalyzerOptions heavyOpts() {
  AnalyzerOptions O;
  O.UseOpCache = false;
  return O;
}

TEST(FailureTaxonomy, ParseErrorCarriesMessageAndLine) {
  AnalysisResult R = analyzeProgram("p(a).\nq(b) :- .\n", "p(any)");
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Fail, FailKind::ParseError);
  EXPECT_EQ(R.FailLine, 2u);
  EXPECT_NE(R.Error.find("line 2"), std::string::npos) << R.Error;
}

TEST(FailureTaxonomy, BadGoalAndUndefinedGoalAreBadQuery) {
  AnalysisResult Bad = analyzeProgram("p(a).\n", "p(any");
  EXPECT_FALSE(Bad.Ok);
  EXPECT_EQ(Bad.Fail, FailKind::BadQuery);

  AnalysisResult Undef = analyzeProgram("p(a).\n", "q(any)");
  EXPECT_FALSE(Undef.Ok);
  EXPECT_EQ(Undef.Fail, FailKind::BadQuery);

  AnalysisResult Ok = analyzeProgram("p(a).\n", "p(any)");
  EXPECT_TRUE(Ok.Ok);
  EXPECT_EQ(Ok.Fail, FailKind::None);
  EXPECT_FALSE(Ok.Degraded);
}

TEST(FailureTaxonomy, KindNamesAreStable) {
  EXPECT_STREQ(failKindName(FailKind::None), "none");
  EXPECT_STREQ(failKindName(FailKind::ParseError), "parse-error");
  EXPECT_STREQ(failKindName(FailKind::Deadline), "deadline");
  EXPECT_STREQ(failKindName(FailKind::Cancelled), "cancelled");
  EXPECT_STREQ(failKindName(FailKind::Exception), "exception");
  EXPECT_STREQ(failKindName(FailKind::Rejected), "rejected");
}

TEST(Cancellation, PreCancelledTokenUnwindsToStructuredResult) {
  auto Token = std::make_shared<CancelToken>();
  Token->cancel();
  AnalyzerOptions Opts;
  Opts.Cancel = Token;
  Opts.CollectDelta = true;
  const BenchmarkProgram *B = findBenchmark("QU");
  ASSERT_NE(B, nullptr);
  AnalysisResult R = analyzeProgram(B->Source, B->GoalSpec, Opts);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Fail, FailKind::Cancelled);
  EXPECT_FALSE(R.Converged);
  EXPECT_TRUE(R.QueryOutput.empty());
  EXPECT_TRUE(R.Summaries.empty());
  EXPECT_EQ(R.Delta, nullptr) << "a cancelled job must harvest nothing";
}

TEST(Cancellation, DeadlineExpiresMidFixpointOnAHeavyJob) {
  const BenchmarkProgram *PR = findBenchmark("PR");
  ASSERT_NE(PR, nullptr);
  AnalyzerOptions Opts = heavyOpts();
  Opts.DeadlineMs = 1;
  Opts.CollectDelta = true;
  AnalysisResult R = analyzeProgram(PR->Source, PR->GoalSpec, Opts);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Fail, FailKind::Deadline);
  EXPECT_NE(R.Error.find("deadline"), std::string::npos) << R.Error;
  EXPECT_FALSE(R.Converged);
  EXPECT_EQ(R.Delta, nullptr);
}

TEST(Cancellation, UnarmedOptionsChangeNothing) {
  // DeadlineMs = 0 and a null token must leave the result bit-identical
  // to a plain run (the signal is never even constructed armed).
  const BenchmarkProgram *B = findBenchmark("QU");
  AnalysisResult Plain = analyzeProgram(B->Source, B->GoalSpec);
  AnalyzerOptions Opts;
  Opts.DeadlineMs = 0;
  Opts.Cancel = nullptr;
  AnalysisResult Armed = analyzeProgram(B->Source, B->GoalSpec, Opts);
  ASSERT_TRUE(Plain.Ok && Armed.Ok);
  EXPECT_EQ(fingerprint(Plain), fingerprint(Armed));
}

/// The satellite pin: a wave whose jobs are all cancelled mid-run,
/// followed by a TierLifecycle rotation, must leave the shared tier,
/// the delta harvest, and the promotion history exactly as if the wave
/// had never been submitted.
TEST(Cancellation, CancelledWaveLeavesNoTraceInTheTierLifecycle) {
  std::vector<AnalysisJob> Jobs = section9Jobs();
  std::string Err;
  std::shared_ptr<const SharedCache> Cache =
      SharedCache::build(Jobs, AnalyzerOptions{}, &Err);
  ASSERT_NE(Cache, nullptr) << Err;

  LifecyclePolicy LP;
  LP.PromoteMinHits = 2;

  // One wave of Jobs on a fresh 4-worker service over \p Tier,
  // harvesting deltas; \p Cancel (when set) is the caller's wave token.
  auto Wave = [&](std::shared_ptr<const SharedCache> Tier,
                  std::shared_ptr<const CancelToken> Cancel,
                  BatchStats *St = nullptr) {
    ServiceOptions SO;
    SO.Workers = 4;
    SO.Shared = std::move(Tier);
    SO.CollectDeltas = true;
    SO.Opts.Cancel = std::move(Cancel);
    AnalysisService Svc(SO);
    return runBatch(Svc, Jobs, St);
  };

  // Run A: one clean wave through a rotation.
  std::vector<std::string> CleanFps;
  uint64_t CleanPromotions = 0;
  {
    TierLifecycle L(Cache, LP);
    L.endBatch(Wave(L.current(), nullptr));
    std::vector<JobOutcome> Out2 = Wave(L.current(), nullptr);
    for (const JobOutcome &O : Out2)
      CleanFps.push_back(fingerprint(O.Result));
    L.endBatch(Out2);
    CleanPromotions = L.stats().Promotions;
  }

  // Run B: identical, except a fully-cancelled wave (same jobs, the
  // caller's token tripped before submission) runs — and rotates —
  // between the two.
  {
    TierLifecycle L(Cache, LP);
    L.endBatch(Wave(L.current(), nullptr));

    auto Token = std::make_shared<CancelToken>();
    Token->cancel();
    BatchStats CancelledStats;
    std::vector<JobOutcome> Cancelled =
        Wave(L.current(), Token, &CancelledStats);
    ASSERT_EQ(Cancelled.size(), Jobs.size());
    for (const JobOutcome &O : Cancelled) {
      EXPECT_FALSE(O.Result.Ok);
      EXPECT_EQ(O.Result.Fail, FailKind::Cancelled);
      EXPECT_EQ(O.Result.Delta, nullptr)
          << "cancelled jobs must not harvest deltas";
    }
    EXPECT_EQ(CancelledStats.Failed, Jobs.size());
    uint64_t PromotionsBefore = L.stats().Promotions;
    L.endBatch(Cancelled); // the rotation after the cancelled wave
    EXPECT_EQ(L.stats().Promotions, PromotionsBefore)
        << "a cancelled wave must promote nothing";

    std::vector<JobOutcome> Out2 = Wave(L.current(), nullptr);
    for (size_t I = 0; I != Out2.size(); ++I)
      EXPECT_EQ(CleanFps[I], fingerprint(Out2[I].Result))
          << Jobs[I].Key
          << ": a cancelled wave left a trace in the shared tier";
    // Same promotion count as the clean run, plus nothing extra: the
    // cancelled wave contributed zero promotions (it advances the
    // generation clock, which is time passing, not analysis state).
    EXPECT_EQ(L.stats().Promotions, CleanPromotions);
  }
}

TEST(ResilienceLadder, WidenToTopFloorIsSoundAndDegraded) {
  AnalysisJob Job{"j", "p(a,b).\n", "p(any,list)"};
  AnalysisResult Floor = ResilienceManager::widenToTopResult(Job);
  EXPECT_TRUE(Floor.Ok);
  EXPECT_TRUE(Floor.Degraded);
  EXPECT_FALSE(Floor.Converged);
  EXPECT_TRUE(Floor.QuerySucceeds);
  ASSERT_EQ(Floor.QueryOutput.size(), 2u);
  for (const TypeGraph &G : Floor.QueryOutput)
    EXPECT_TRUE(graphIncludes(G, TypeGraph::makeAny(), *Floor.Syms))
        << "the floor must cover all terms";

  AnalysisJob BadGoal{"j", "p(a).\n", "p(any"};
  AnalysisResult R = ResilienceManager::widenToTopResult(BadGoal);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Fail, FailKind::BadQuery);
}

TEST(ResilienceLadder, EligibilityFollowsTheTaxonomy) {
  AnalysisResult R;
  R.Ok = false;
  R.Fail = FailKind::Deadline;
  EXPECT_TRUE(ResilienceManager::ladderEligible(R));
  R.Fail = FailKind::Exception;
  EXPECT_TRUE(ResilienceManager::ladderEligible(R));
  R.Fail = FailKind::ParseError;
  EXPECT_FALSE(ResilienceManager::ladderEligible(R));
  R.Fail = FailKind::BadQuery;
  EXPECT_FALSE(ResilienceManager::ladderEligible(R));
  R.Fail = FailKind::Cancelled;
  EXPECT_FALSE(ResilienceManager::ladderEligible(R));
  R.Ok = true;
  R.Fail = FailKind::None;
  EXPECT_FALSE(ResilienceManager::ladderEligible(R));
}

AnalysisResult deadlineFailure() {
  AnalysisResult R;
  R.Fail = FailKind::Deadline;
  R.Error = "deadline of 1 ms expired mid-analysis";
  R.Converged = false;
  return R;
}

TEST(ResilienceLadder, ColdRetryRecoversATransientFailure) {
  ResilienceManager Mgr;
  AnalysisJob Job{"j", "p(a).\n", "p(any)"};
  AnalyzerOptions Base;
  RecoveryRung Rung = RecoveryRung::None;
  uint32_t Attempts = 1;
  uint32_t SeenAttempt = 0;
  AnalysisResult R = Mgr.recover(
      Job, Base, deadlineFailure(),
      [&](const AnalyzerOptions &O, uint32_t A) {
        SeenAttempt = A;
        EXPECT_EQ(O.Shared, nullptr) << "rung 1 must bypass the tier";
        return analyzeProgram(Job.Source, Job.GoalSpec, O);
      },
      Rung, Attempts);
  EXPECT_TRUE(R.Ok);
  EXPECT_FALSE(R.Degraded) << "a cold-rung result is the normal output";
  EXPECT_EQ(Rung, RecoveryRung::ColdRetry);
  EXPECT_EQ(Attempts, 2u);
  EXPECT_EQ(SeenAttempt, 1u);
  EXPECT_EQ(Mgr.stats().ColdRetrySuccesses, 1u);
  EXPECT_EQ(Mgr.stats().TightRetries, 0u);
}

TEST(ResilienceLadder, TightBudgetRungMarksResultsDegraded) {
  ResilienceManager Mgr;
  AnalysisJob Job{"j", "p(a).\n", "p(any)"};
  AnalyzerOptions Base;
  RecoveryRung Rung = RecoveryRung::None;
  uint32_t Attempts = 1;
  AnalysisResult R = Mgr.recover(
      Job, Base, deadlineFailure(),
      [&](const AnalyzerOptions &O, uint32_t A) {
        if (A == 1)
          return deadlineFailure(); // cold rung also times out
        EXPECT_EQ(O.MaxFixpointRounds,
                  Mgr.options().TightMaxFixpointRounds);
        EXPECT_EQ(O.MaxInputPatterns, Mgr.options().TightMaxInputPatterns);
        EXPECT_FALSE(O.CollectDelta)
            << "a coarse run's entries must not promote into the tier";
        return analyzeProgram(Job.Source, Job.GoalSpec, O);
      },
      Rung, Attempts);
  EXPECT_TRUE(R.Ok);
  EXPECT_TRUE(R.Degraded);
  EXPECT_EQ(Rung, RecoveryRung::TightBudgets);
  EXPECT_EQ(Attempts, 3u);
  EXPECT_EQ(Mgr.stats().TightRetrySuccesses, 1u);
}

TEST(ResilienceLadder, ExhaustionFallsToTheFloorAndQuarantines) {
  ResilienceOptions RO;
  RO.QuarantineThreshold = 2;
  ResilienceManager Mgr(RO);
  AnalysisJob Poison{"poison", "p(a).\n", "p(any)"};
  auto AlwaysFails = [](const AnalyzerOptions &, uint32_t) {
    return deadlineFailure();
  };

  // First exhaustion: floor result, not yet quarantined.
  RecoveryRung Rung = RecoveryRung::None;
  uint32_t Attempts = 1;
  AnalysisResult R =
      Mgr.recover(Poison, {}, deadlineFailure(), AlwaysFails, Rung, Attempts);
  EXPECT_TRUE(R.Ok);
  EXPECT_TRUE(R.Degraded);
  EXPECT_EQ(Rung, RecoveryRung::WidenToTop);
  EXPECT_NE(R.Error.find("degraded to top after"), std::string::npos);
  EXPECT_FALSE(Mgr.isQuarantined(Poison));

  // Second exhaustion crosses the threshold.
  Rung = RecoveryRung::None;
  Attempts = 1;
  Mgr.recover(Poison, {}, deadlineFailure(), AlwaysFails, Rung, Attempts);
  EXPECT_TRUE(Mgr.isQuarantined(Poison));
  EXPECT_EQ(Mgr.stats().QuarantinedJobs, 1u);

  // Quarantined jobs are answered from the floor without a worker.
  AnalysisResult Out;
  Rung = RecoveryRung::None;
  EXPECT_TRUE(Mgr.preCheck(Poison, Out, Rung));
  EXPECT_EQ(Rung, RecoveryRung::Quarantined);
  EXPECT_TRUE(Out.Ok);
  EXPECT_TRUE(Out.Degraded);
  EXPECT_EQ(Mgr.stats().QuarantineShortCircuits, 1u);

  // A different job is unaffected.
  AnalysisJob Fine{"fine", "q(b).\n", "q(any)"};
  EXPECT_FALSE(Mgr.isQuarantined(Fine));
  EXPECT_FALSE(Mgr.preCheck(Fine, Out, Rung));
}

/// The quarantine-TTL satellite: after QuarantineProbeAfter
/// short-circuits, the next request probes through; a failed probe
/// re-arms a full TTL window, a successful one releases the fingerprint.
TEST(ResilienceLadder, QuarantineTTLProbesThroughAndReleases) {
  ResilienceOptions RO;
  RO.QuarantineThreshold = 1;
  RO.QuarantineProbeAfter = 3;
  ResilienceManager Mgr(RO);
  AnalysisJob Job{"flaky", "p(a).\n", "p(any)"};
  auto AlwaysFails = [](const AnalyzerOptions &, uint32_t) {
    return deadlineFailure();
  };

  // Condemn the fingerprint (artificially — the job itself is healthy,
  // exactly the transiently-quarantined shape the TTL exists for).
  RecoveryRung Rung = RecoveryRung::None;
  uint32_t Attempts = 1;
  Mgr.recover(Job, {}, deadlineFailure(), AlwaysFails, Rung, Attempts);
  ASSERT_TRUE(Mgr.isQuarantined(Job));

  // TTL window: exactly QuarantineProbeAfter floor answers...
  AnalysisResult Out;
  bool Probe = true;
  for (int I = 0; I != 3; ++I) {
    EXPECT_TRUE(Mgr.preCheck(Job, Out, Rung, &Probe)) << "window " << I;
    EXPECT_FALSE(Probe);
  }
  // ...then the next request probes through.
  EXPECT_FALSE(Mgr.preCheck(Job, Out, Rung, &Probe));
  EXPECT_TRUE(Probe);
  EXPECT_EQ(Mgr.stats().QuarantineProbes, 1u);

  // A failed probe re-arms a full TTL window.
  Mgr.probeResult(Job, /*Restored=*/false);
  EXPECT_TRUE(Mgr.isQuarantined(Job));
  for (int I = 0; I != 3; ++I)
    EXPECT_TRUE(Mgr.preCheck(Job, Out, Rung, &Probe)) << "window " << I;
  EXPECT_FALSE(Mgr.preCheck(Job, Out, Rung, &Probe));
  EXPECT_TRUE(Probe);

  // A successful probe re-earns full service.
  Mgr.probeResult(Job, /*Restored=*/true);
  EXPECT_FALSE(Mgr.isQuarantined(Job));
  EXPECT_FALSE(Mgr.preCheck(Job, Out, Rung, &Probe));
  EXPECT_FALSE(Probe);
  EXPECT_EQ(Mgr.stats().QuarantineReleases, 1u);
}

/// Same contract end-to-end through the shared containment runner: a
/// healthy job condemned by transient noise probes through after the
/// TTL and is restored to full (non-degraded) service.
TEST(ResilienceLadder, ProbeThroughRestoresFullServiceEndToEnd) {
  ResilienceOptions RO;
  RO.QuarantineThreshold = 1;
  RO.QuarantineProbeAfter = 2;
  auto Mgr = std::make_shared<ResilienceManager>(RO);
  const BenchmarkProgram *QU = findBenchmark("QU");
  AnalysisJob Job{"QU", QU->Source, QU->GoalSpec};
  auto AlwaysFails = [](const AnalyzerOptions &, uint32_t) {
    return deadlineFailure();
  };
  RecoveryRung Rung = RecoveryRung::None;
  uint32_t Attempts = 1;
  Mgr->recover(Job, {}, deadlineFailure(), AlwaysFails, Rung, Attempts);
  ASSERT_TRUE(Mgr->isQuarantined(Job));

  // Two requests answered from the floor without running anything.
  for (int I = 0; I != 2; ++I) {
    JobOutcome O = runContainedJob(Job, {}, Mgr.get(), 0);
    EXPECT_EQ(O.Rung, RecoveryRung::Quarantined);
    EXPECT_TRUE(O.Result.Degraded);
    EXPECT_EQ(O.Attempts, 0u);
  }
  // The third probes through, succeeds cleanly, and lifts the verdict.
  JobOutcome P = runContainedJob(Job, {}, Mgr.get(), 0);
  EXPECT_EQ(P.Rung, RecoveryRung::None);
  EXPECT_TRUE(P.Result.Ok);
  EXPECT_FALSE(P.Result.Degraded);
  EXPECT_FALSE(Mgr->isQuarantined(Job));
  EXPECT_EQ(Mgr->stats().QuarantineReleases, 1u);

  // Restored means restored: the next request takes the normal path.
  JobOutcome N = runContainedJob(Job, {}, Mgr.get(), 0);
  EXPECT_TRUE(N.Result.Ok);
  EXPECT_EQ(N.Rung, RecoveryRung::None);
  EXPECT_EQ(Mgr->stats().QuarantineShortCircuits, 2u);
}

/// End-to-end: a service with deadline-doomed jobs and a ladder ends
/// the batch with every job answered (Ok through a degrading rung), no
/// worker lost, and the per-rung stats visible. One worker per job, so
/// no job waits out its deadline in the queue (the service would shed
/// it as Rejected); 10 ms still leaves an uncached PR run (several times
/// longer) failing its first attempt with Deadline. The watchdog is
/// off: the whole ladder outlives its cancel multiple by design.
TEST(ResilienceLadder, ServiceRecoversDeadlinedJobsEndToEnd) {
  const BenchmarkProgram *PR = findBenchmark("PR");
  ASSERT_NE(PR, nullptr);
  std::vector<AnalysisJob> Jobs(4, AnalysisJob{"PR", PR->Source,
                                               PR->GoalSpec});

  ServiceOptions SO;
  SO.Workers = 4;
  SO.Opts = heavyOpts();
  SO.Opts.DeadlineMs = 10;
  SO.Resilience = std::make_shared<ResilienceManager>();
  SO.WatchdogPollMs = 0;
  AnalysisService Svc(SO);
  BatchStats St;
  std::vector<JobOutcome> Out = runBatch(Svc, Jobs, &St);
  ASSERT_EQ(Out.size(), Jobs.size());
  for (const JobOutcome &O : Out) {
    EXPECT_TRUE(O.Result.Ok)
        << "the ladder must answer a deadline failure: " << O.Result.Error;
    EXPECT_NE(O.Rung, RecoveryRung::None);
    EXPECT_GE(O.Attempts, O.Rung == RecoveryRung::Quarantined ? 0u : 2u);
  }
  EXPECT_EQ(St.Failed, 0u);
  EXPECT_TRUE(St.FirstError.empty());
  EXPECT_GT(SO.Resilience->stats().FirstAttemptFailures, 0u);
}

/// Without a ladder the failure is reported as-is — and the batch stats
/// surface it (the bench/gate chain reads Failed/FirstError).
TEST(ResilienceLadder, NoLadderMeansStructuredFailureInStats) {
  std::vector<AnalysisJob> Jobs{
      {"good", "p(a).\n", "p(any)"},
      {"bad", "p(a) :- .\n", "p(any)"},
  };
  ServiceOptions SO;
  SO.Workers = 2;
  AnalysisService Svc(SO);
  BatchStats St;
  std::vector<JobOutcome> Out = runBatch(Svc, Jobs, &St);
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_TRUE(Out[0].Result.Ok);
  EXPECT_FALSE(Out[1].Result.Ok);
  EXPECT_EQ(Out[1].Result.Fail, FailKind::ParseError);
  EXPECT_FALSE(St.AllOk);
  EXPECT_EQ(St.Failed, 1u);
  EXPECT_NE(St.FirstError.find("bad: "), std::string::npos)
      << St.FirstError;
}

#ifdef GAIA_FAULT_INJECT

/// Chaos-build tests. These reconfigure the process-global fault plan;
/// each test restores probability 0 before returning so later tests
/// (and other suites in this binary) run clean.
class FaultInjection : public ::testing::Test {
protected:
  void TearDown() override { faultinject::configure(0.0, 1); }
};

TEST_F(FaultInjection, ProbesAreContainedAsStructuredFailures) {
  // Probability 1: the very first probe hit throws. The contained run
  // must turn it into FailKind::Exception, never a crash.
  faultinject::configure(1.0, 42);
  const BenchmarkProgram *B = findBenchmark("QU");
  faultinject::JobScope Scope(7);
  AnalysisResult R = containedAnalyze(B->Source, B->GoalSpec, {});
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Fail, FailKind::Exception);
  EXPECT_FALSE(R.Error.empty());
  EXPECT_GT(Scope.fires(), 0u);
}

TEST_F(FaultInjection, DisarmedThreadsNeverFault) {
  faultinject::configure(1.0, 42);
  // No JobScope: warm-up/oracle code paths run fault-free even at p=1.
  const BenchmarkProgram *B = findBenchmark("QU");
  AnalysisResult R = containedAnalyze(B->Source, B->GoalSpec, {});
  EXPECT_TRUE(R.Ok) << R.Error;
}

TEST_F(FaultInjection, FaultPlanIsDeterministicPerJobAndAttempt) {
  // Replay half: the same (seed, salt) reproduces the same run.
  faultinject::configure(1e-2, 1234);
  const BenchmarkProgram *B = findBenchmark("KA");
  auto RunPlan = [&](uint64_t Salt) {
    faultinject::JobScope Scope(Salt);
    AnalysisResult R = containedAnalyze(B->Source, B->GoalSpec, {});
    return std::make_pair(R.Ok, Scope.fires());
  };
  auto A1 = RunPlan(11), A2 = RunPlan(11);
  EXPECT_EQ(A1, A2) << "same (seed, salt) must replay the same faults";

  // Divergence half: distinct salts draw distinct streams. (Ok, fires)
  // is too coarse an observable here — raise() disarms after one fire,
  // so at any workable p every salted run reports (false, 1). Probe the
  // stream directly instead: 64 shouldFire draws at p=0.5 give each
  // salt a 64-bit signature, and a collision between two independent
  // streams has probability 2^-64.
  faultinject::configure(0.5, 1234);
  auto Signature = [](uint64_t Salt) {
    faultinject::JobScope Scope(Salt);
    uint64_t Sig = 0;
    for (int I = 0; I != 64; ++I)
      Sig = (Sig << 1) |
            (faultinject::shouldFire(faultinject::Probe::OpCacheLookup) ? 1
                                                                        : 0);
    return Sig;
  };
  std::vector<uint64_t> Sigs;
  for (uint64_t S = 0; S != 8; ++S)
    Sigs.push_back(Signature(S));
  for (size_t I = 0; I != Sigs.size(); ++I)
    for (size_t J = I + 1; J != Sigs.size(); ++J)
      EXPECT_NE(Sigs[I], Sigs[J])
          << "salts " << I << " and " << J << " drew identical streams";
  EXPECT_EQ(Signature(3), Signature(3)) << "signatures must replay too";
}

TEST_F(FaultInjection, LadderRecoversInjectedFaultsInTheService) {
  // p high enough that many jobs fault, low enough that retries (fresh
  // stream per attempt) usually survive: the ladder's bread and butter.
  faultinject::configure(5e-3, 99);
  std::vector<AnalysisJob> Jobs;
  for (int Rep = 0; Rep != 5; ++Rep)
    for (const AnalysisJob &J : section9Jobs())
      Jobs.push_back(J);

  ServiceOptions SO;
  SO.Workers = 4;
  SO.Resilience = std::make_shared<ResilienceManager>();
  AnalysisService Svc(SO);
  BatchStats St;
  std::vector<JobOutcome> Out = runBatch(Svc, Jobs, &St);
  ASSERT_EQ(Out.size(), Jobs.size());

  uint64_t Faulted = 0;
  for (size_t I = 0; I != Out.size(); ++I) {
    const JobOutcome &O = Out[I];
    if (O.FaultFires)
      ++Faulted;
    // Every job is answered: recovered Ok or a structured failure.
    if (!O.Result.Ok)
      EXPECT_NE(O.Result.Fail, FailKind::None) << Jobs[I].Key;
    // A fault-free single-attempt job took the normal path.
    if (O.FaultFires == 0 && O.Attempts == 1)
      EXPECT_EQ(O.Rung, RecoveryRung::None);
  }
  EXPECT_GT(Faulted, 0u) << "plan fired nowhere; raise p or jobs";
  EXPECT_GT(faultinject::totalFires(), 0u);
}

#else

TEST(FaultInjection, SkippedWithoutChaosBuild) {
  GTEST_SKIP() << "build with -DGAIA_FAULT_INJECT=ON for the chaos tests";
}

#endif // GAIA_FAULT_INJECT

} // namespace
