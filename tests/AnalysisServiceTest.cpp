//===- tests/AnalysisServiceTest.cpp - Resident serving layer tests -------==//
///
/// \file
/// The AnalysisService contract (runtime/AnalysisService.h): bounded
/// admission with structured FailKind::Rejected refusals under every
/// policy, backpressure gauges and the Healthy -> Saturated -> Shedding
/// overload ladder (driven deterministically via ServiceClock::advance),
/// graceful drain semantics (submit-after-drain, queue shedding, tier
/// promotion intact), bit-identity of admitted jobs against the
/// sequential oracle, the caller's wave cancel token, and — in
/// GAIA_FAULT_INJECT builds — the watchdog's cancel -> poison -> replace
/// escalation on a deliberately stalled worker.
///
//===----------------------------------------------------------------------===//

#include "runtime/AnalysisService.h"

#include "core/Report.h"
#include "programs/Benchmarks.h"
#include "support/FaultInject.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

using namespace gaia;
using std::chrono::milliseconds;

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

/// The heavy blocker: PR uncached runs long enough (well over a
/// millisecond — ResilienceTest pins that a 1 ms deadline expires
/// mid-fixpoint) that admission races against it are decided by
/// microsecond-scale submits, never by the job finishing early.
AnalysisJob heavyJob() {
  const BenchmarkProgram *PR = findBenchmark("PR");
  return {"PR", PR->Source, PR->GoalSpec};
}

AnalysisJob cheapJob() {
  const BenchmarkProgram *QU = findBenchmark("QU");
  return {"QU", QU->Source, QU->GoalSpec};
}

/// Spins (bounded) until one worker has actually claimed a job, so a
/// test can park the queue behind a known-busy worker.
void awaitBusyWorker(AnalysisService &Svc) {
  for (int I = 0; I != 20000; ++I) {
    if (Svc.stats().BusyWorkers != 0)
      return;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  FAIL() << "no worker claimed a job within the spin budget";
}

class ServiceTest : public ::testing::Test {
protected:
  // Tests age queues via the process-global ServiceClock skew; drop it
  // once the test's services are gone so suites stay independent.
  void TearDown() override { ServiceClock::resetForTest(); }
};

TEST_F(ServiceTest, NamesAreStable) {
  EXPECT_STREQ(admitPolicyName(AdmitPolicy::Block), "block");
  EXPECT_STREQ(admitPolicyName(AdmitPolicy::RejectNewest), "reject-newest");
  EXPECT_STREQ(admitPolicyName(AdmitPolicy::ShedEarliestToMiss),
               "shed-earliest-to-miss");
  EXPECT_STREQ(overloadStateName(OverloadState::Healthy), "healthy");
  EXPECT_STREQ(overloadStateName(OverloadState::Saturated), "saturated");
  EXPECT_STREQ(overloadStateName(OverloadState::Shedding), "shedding");
  EXPECT_STREQ(failKindName(FailKind::Rejected), "rejected");
}

/// The acceptance pin: jobs admitted under concurrent load produce
/// results bit-identical to the sequential oracle, and the tier the
/// drain promotes serves a fresh batch bit-identically too.
TEST_F(ServiceTest, AdmittedJobsMatchTheSequentialOracleAndDrainKeepsTier) {
  std::vector<AnalysisJob> Jobs = section9Jobs();
  std::string Err;
  std::shared_ptr<const SharedCache> Cache =
      SharedCache::build(Jobs, AnalyzerOptions{}, &Err);
  ASSERT_NE(Cache, nullptr) << Err;

  std::vector<std::string> Oracle;
  for (const AnalysisJob &J : Jobs)
    Oracle.push_back(fingerprint(analyzeProgram(J.Source, J.GoalSpec)));

  ServiceOptions SO;
  SO.Workers = 4;
  SO.QueueCapacity = 256;
  SO.Shared = Cache;
  SO.CollectDeltas = true;
  AnalysisService Svc(SO);

  std::vector<std::pair<size_t, ServiceTicketPtr>> Tickets;
  for (int Rep = 0; Rep != 3; ++Rep)
    for (size_t I = 0; I != Jobs.size(); ++I)
      Tickets.emplace_back(I, Svc.submit({Jobs[I], 0}));

  for (auto &[I, T] : Tickets) {
    const ServiceOutcome &O = T->wait();
    ASSERT_TRUE(O.Ran);
    ASSERT_TRUE(O.Outcome.Result.Ok) << O.Outcome.Result.Error;
    EXPECT_EQ(fingerprint(O.Outcome.Result), Oracle[I])
        << Jobs[I].Key << ": service result diverged from the oracle";
    EXPECT_GT(O.Seq, 0u);
  }

  ServiceStats St = Svc.stats();
  EXPECT_EQ(St.Submitted, Tickets.size());
  EXPECT_EQ(St.Admitted, Tickets.size());
  EXPECT_EQ(St.Completed, Tickets.size());
  EXPECT_EQ(St.ShedQueued, 0u);
  EXPECT_EQ(St.Workers, 4u);

  Svc.drain(milliseconds(20000));
  EXPECT_TRUE(Svc.drained());
  EXPECT_EQ(Svc.lifecycleStats().Batches, 1u);

  // The post-drain tier serves a fresh batch bit-identically.
  std::shared_ptr<const SharedCache> Tier = Svc.tier();
  ASSERT_NE(Tier, nullptr);
  ServiceOptions Fresh;
  Fresh.Workers = 2;
  Fresh.Shared = Tier;
  AnalysisService FreshSvc(Fresh);
  std::vector<JobOutcome> Out = runBatch(FreshSvc, Jobs);
  ASSERT_EQ(Out.size(), Jobs.size());
  for (size_t I = 0; I != Out.size(); ++I) {
    ASSERT_TRUE(Out[I].Result.Ok);
    EXPECT_EQ(fingerprint(Out[I].Result), Oracle[I])
        << Jobs[I].Key << ": post-drain tier changed a result";
  }
}

TEST_F(ServiceTest, RejectNewestAnswersOverflowStructurally) {
  ServiceOptions SO;
  SO.Workers = 1;
  SO.QueueCapacity = 2;
  SO.Admission = AdmitPolicy::RejectNewest;
  SO.Opts.UseOpCache = false;
  SO.WatchdogPollMs = 0;
  AnalysisService Svc(SO);

  std::vector<ServiceTicketPtr> Tickets;
  for (int I = 0; I != 5; ++I)
    Tickets.push_back(Svc.submit({heavyJob(), 0}));

  uint64_t Rejected = 0;
  for (auto &T : Tickets) {
    const ServiceOutcome &O = T->wait();
    if (!O.Ran) {
      ++Rejected;
      EXPECT_FALSE(O.Outcome.Result.Ok);
      EXPECT_EQ(O.Outcome.Result.Fail, FailKind::Rejected);
      EXPECT_NE(O.Outcome.Result.Error.find("queue full"),
                std::string::npos)
          << O.Outcome.Result.Error;
      EXPECT_EQ(O.Outcome.Attempts, 0u);
    } else {
      EXPECT_TRUE(O.Outcome.Result.Ok) << O.Outcome.Result.Error;
    }
  }
  // 1 on the worker + 2 queued at most: of 5 near-instant submissions
  // at least 2 must overflow.
  EXPECT_GE(Rejected, 2u);
  EXPECT_EQ(Svc.stats().RejectedQueueFull, Rejected);
  Svc.drain(milliseconds(20000));
}

TEST_F(ServiceTest, TrySubmitNeverBlocksAndBlockPolicyWaits) {
  ServiceOptions SO;
  SO.Workers = 1;
  SO.QueueCapacity = 1;
  SO.Admission = AdmitPolicy::Block;
  SO.Opts.UseOpCache = false;
  SO.WatchdogPollMs = 0;
  AnalysisService Svc(SO);

  ServiceTicketPtr Blocker = Svc.submit({heavyJob(), 0});
  awaitBusyWorker(Svc);
  ServiceTicketPtr Queued = Svc.submit({heavyJob(), 0}); // fills the queue

  // Backpressure fast path: full queue + Block policy still fails fast.
  ServiceTicketPtr Fast = Svc.trySubmit({cheapJob(), 0});
  ASSERT_TRUE(Fast->done());
  EXPECT_FALSE(Fast->wait().Ran);
  EXPECT_EQ(Fast->wait().Outcome.Result.Fail, FailKind::Rejected);

  // A blocking submit parks until the worker frees queue space, then
  // admits (never rejects).
  ServiceTicketPtr Waited;
  std::thread Submitter(
      [&] { Waited = Svc.submit({cheapJob(), 0}); });
  Submitter.join();
  const ServiceOutcome &O = Waited->wait();
  EXPECT_TRUE(O.Ran);
  EXPECT_TRUE(O.Outcome.Result.Ok) << O.Outcome.Result.Error;
  EXPECT_TRUE(Blocker->wait().Outcome.Result.Ok);
  EXPECT_TRUE(Queued->wait().Outcome.Result.Ok);
  Svc.drain(milliseconds(20000));
}

TEST_F(ServiceTest, ShedEarliestToMissEvictsTheNearestDeadline) {
  ServiceOptions SO;
  SO.Workers = 1;
  SO.QueueCapacity = 2;
  SO.Admission = AdmitPolicy::ShedEarliestToMiss;
  SO.Opts.UseOpCache = false;
  SO.WatchdogPollMs = 0;
  AnalysisService Svc(SO);

  ServiceTicketPtr Blocker = Svc.submit({heavyJob(), 0});
  awaitBusyWorker(Svc);
  ServiceTicketPtr Near = Svc.submit({cheapJob(), 50});
  ServiceTicketPtr Far = Svc.submit({cheapJob(), 60000});

  // Full queue, newcomer with the farthest horizon: the nearest-deadline
  // entry is evicted with a structured refusal.
  ServiceTicketPtr Newest = Svc.submit({cheapJob(), 120000});
  ASSERT_TRUE(Near->done());
  const ServiceOutcome &ON = Near->wait();
  EXPECT_FALSE(ON.Ran);
  EXPECT_EQ(ON.Outcome.Result.Fail, FailKind::Rejected);
  EXPECT_NE(ON.Outcome.Result.Error.find("later-deadline"),
            std::string::npos)
      << ON.Outcome.Result.Error;
  EXPECT_EQ(Svc.stats().ShedQueued, 1u);

  // Full queue, newcomer IS the earliest-to-miss: it is the one refused.
  ServiceTicketPtr Doomed = Svc.submit({cheapJob(), 1});
  ASSERT_TRUE(Doomed->done());
  EXPECT_EQ(Doomed->wait().Outcome.Result.Fail, FailKind::Rejected);
  EXPECT_EQ(Svc.stats().RejectedQueueFull, 1u);

  EXPECT_TRUE(Far->wait().Outcome.Result.Ok);
  EXPECT_TRUE(Newest->wait().Outcome.Result.Ok);
  EXPECT_TRUE(Blocker->wait().Outcome.Result.Ok);
  Svc.drain(milliseconds(20000));
}

TEST_F(ServiceTest, OverloadStateFollowsQueueAgeAndShedsAtAdmission) {
  ServiceOptions SO;
  SO.Workers = 1;
  SO.QueueCapacity = 8;
  SO.Admission = AdmitPolicy::RejectNewest;
  SO.Opts.UseOpCache = false;
  SO.WatchdogPollMs = 0;
  AnalysisService Svc(SO);
  EXPECT_EQ(Svc.overloadState(), OverloadState::Healthy);

  // Seed the job-time EWMA with one completed heavy job (>= 1 ms).
  Svc.submit({heavyJob(), 0})->wait();
  EXPECT_GT(Svc.stats().AvgJobMs, 0.0);
  EXPECT_EQ(Svc.overloadState(), OverloadState::Healthy);

  ServiceTicketPtr Blocker = Svc.submit({heavyJob(), 0});
  awaitBusyWorker(Svc);
  ServiceTicketPtr Head = Svc.submit({cheapJob(), 100}); // queue head

  // Age the queue deterministically: half the shedding horizon makes the
  // service Saturated, the full horizon makes it Shedding.
  ServiceClock::advance(milliseconds(60));
  EXPECT_EQ(Svc.overloadState(), OverloadState::Saturated);
  ServiceClock::advance(milliseconds(60));
  EXPECT_EQ(Svc.overloadState(), OverloadState::Shedding);

  // Under Shedding, a deadline the estimated wait already exceeds is
  // refused at admission rather than shed later at dequeue.
  ServiceTicketPtr Shed = Svc.submit({cheapJob(), 1});
  ASSERT_TRUE(Shed->done());
  EXPECT_FALSE(Shed->wait().Ran);
  EXPECT_EQ(Shed->wait().Outcome.Result.Fail, FailKind::Rejected);
  EXPECT_EQ(Svc.stats().RejectedShedding, 1u);

  // A deadline-free submission is never shed at admission.
  ServiceTicketPtr Free = Svc.submit({cheapJob(), 0});
  EXPECT_FALSE(Free->done());

  ServiceStats St = Svc.stats();
  EXPECT_EQ(St.QueueDepth, 2u);
  EXPECT_GE(St.OldestQueuedMs, 120.0);
  EXPECT_GE(St.PeakQueueDepth, 2u);

  Svc.drain(milliseconds(20000));
  // The aged head missed its deadline while queued: shed at dequeue with
  // a structured refusal, not run to a pointless Deadline failure.
  const ServiceOutcome &OH = Head->wait();
  EXPECT_FALSE(OH.Ran);
  EXPECT_EQ(OH.Outcome.Result.Fail, FailKind::Rejected);
  EXPECT_NE(OH.Outcome.Result.Error.find("expired in queue"),
            std::string::npos)
      << OH.Outcome.Result.Error;
  EXPECT_TRUE(Blocker->wait().Outcome.Result.Ok);
  EXPECT_TRUE(Free->wait().Outcome.Result.Ok);
  EXPECT_GE(Svc.stats().ShedQueued, 1u);
}

TEST_F(ServiceTest, SubmitAfterDrainIsRejectedStructurally) {
  ServiceOptions SO;
  SO.Workers = 2;
  AnalysisService Svc(SO);
  Svc.drain(milliseconds(1000));
  EXPECT_TRUE(Svc.drained());

  ServiceTicketPtr T = Svc.submit({cheapJob(), 0});
  ASSERT_TRUE(T->done());
  EXPECT_FALSE(T->wait().Ran);
  EXPECT_EQ(T->wait().Outcome.Result.Fail, FailKind::Rejected);
  EXPECT_NE(T->wait().Outcome.Result.Error.find("draining"),
            std::string::npos);

  ServiceTicketPtr T2 = Svc.trySubmit({cheapJob(), 0});
  ASSERT_TRUE(T2->done());
  EXPECT_EQ(T2->wait().Outcome.Result.Fail, FailKind::Rejected);
  EXPECT_EQ(Svc.stats().RejectedDraining, 2u);

  Svc.drain(milliseconds(0)); // idempotent
  EXPECT_TRUE(Svc.drained());
}

TEST_F(ServiceTest, ZeroBudgetDrainShedsTheSaturatedQueueStructurally) {
  ServiceOptions SO;
  SO.Workers = 1;
  SO.QueueCapacity = 16;
  SO.Opts.UseOpCache = false;
  AnalysisService Svc(SO);

  ServiceTicketPtr Blocker = Svc.submit({heavyJob(), 0});
  awaitBusyWorker(Svc);
  std::vector<ServiceTicketPtr> Queued;
  for (int I = 0; I != 8; ++I)
    Queued.push_back(Svc.submit({cheapJob(), 0}));

  Svc.drain(milliseconds(0));
  EXPECT_TRUE(Svc.drained());

  // Every queued job: resolved, structured, FailKind::Rejected.
  for (auto &T : Queued) {
    ASSERT_TRUE(T->done());
    const ServiceOutcome &O = T->wait();
    EXPECT_FALSE(O.Ran);
    EXPECT_FALSE(O.Outcome.Result.Ok);
    EXPECT_EQ(O.Outcome.Result.Fail, FailKind::Rejected);
    EXPECT_NE(O.Outcome.Result.Error.find("shed at drain"),
              std::string::npos)
        << O.Outcome.Result.Error;
  }
  EXPECT_EQ(Svc.stats().ShedQueued, 8u);

  // The in-flight blocker was cancelled past the budget (or beat the
  // cancel); either way its ticket resolves structurally.
  ASSERT_TRUE(Blocker->done());
  const ServiceOutcome &OB = Blocker->wait();
  EXPECT_TRUE(OB.Ran);
  if (!OB.Outcome.Result.Ok)
    EXPECT_EQ(OB.Outcome.Result.Fail, FailKind::Cancelled)
        << OB.Outcome.Result.Error;
}

TEST_F(ServiceTest, CallerCancelResolvesAQueuedJobAsCancelled) {
  ServiceOptions SO;
  SO.Workers = 1;
  SO.QueueCapacity = 4;
  SO.Opts.UseOpCache = false;
  SO.WatchdogPollMs = 0;
  AnalysisService Svc(SO);

  ServiceTicketPtr Blocker = Svc.submit({heavyJob(), 0});
  awaitBusyWorker(Svc);
  ServiceTicketPtr T = Svc.submit({cheapJob(), 0});
  T->cancel(); // withdrawn while still queued
  const ServiceOutcome &O = T->wait();
  EXPECT_TRUE(O.Ran);
  EXPECT_FALSE(O.Outcome.Result.Ok);
  EXPECT_EQ(O.Outcome.Result.Fail, FailKind::Cancelled);
  EXPECT_TRUE(Blocker->wait().Outcome.Result.Ok);
  Svc.drain(milliseconds(20000));
}

/// The caller's own token (ServiceOptions::Opts.Cancel) covers every
/// job of the service: tripped before submission, every ticket resolves
/// as Cancelled, nothing is harvested, and the drain promotes nothing.
TEST_F(ServiceTest, PreTrippedCallerTokenCancelsEveryTicket) {
  std::vector<AnalysisJob> Jobs = section9Jobs();
  std::string Err;
  std::shared_ptr<const SharedCache> Cache =
      SharedCache::build(Jobs, AnalyzerOptions{}, &Err);
  ASSERT_NE(Cache, nullptr) << Err;

  auto Token = std::make_shared<CancelToken>();
  Token->cancel();
  ServiceOptions SO;
  SO.Workers = 4;
  SO.Shared = Cache;
  SO.CollectDeltas = true;
  SO.Opts.Cancel = Token;
  AnalysisService Svc(SO);

  BatchStats St;
  std::vector<JobOutcome> Out = runBatch(Svc, Jobs, &St);
  ASSERT_EQ(Out.size(), Jobs.size());
  for (size_t I = 0; I != Out.size(); ++I) {
    EXPECT_FALSE(Out[I].Result.Ok) << Jobs[I].Key;
    EXPECT_EQ(Out[I].Result.Fail, FailKind::Cancelled)
        << Jobs[I].Key << ": " << failKindName(Out[I].Result.Fail);
    EXPECT_EQ(Out[I].Result.Delta, nullptr)
        << "cancelled jobs must not harvest deltas";
  }
  EXPECT_EQ(St.Failed, Jobs.size());
  EXPECT_EQ(Svc.stats().Completed, Jobs.size());

  Svc.drain(milliseconds(20000));
  EXPECT_EQ(Svc.lifecycleStats().Promotions, 0u);
  EXPECT_EQ(Svc.tier(), Cache) << "a cancelled wave must promote nothing";
}

/// Either token withdraws a running job: the caller's wave token tripped
/// mid-run lands at the job's next poll point like ServiceTicket::cancel.
TEST_F(ServiceTest, CallerTokenCancelsARunningJob) {
  auto Token = std::make_shared<CancelToken>();
  ServiceOptions SO;
  SO.Workers = 1;
  SO.Opts.UseOpCache = false;
  SO.Opts.Cancel = Token;
  SO.WatchdogPollMs = 0;
  AnalysisService Svc(SO);

  ServiceTicketPtr T = Svc.submit({heavyJob(), 0});
  awaitBusyWorker(Svc);
  Token->cancel();
  const ServiceOutcome &O = T->wait();
  EXPECT_TRUE(O.Ran);
  EXPECT_FALSE(O.Outcome.Result.Ok);
  EXPECT_EQ(O.Outcome.Result.Fail, FailKind::Cancelled)
      << failKindName(O.Outcome.Result.Fail);
  Svc.drain(milliseconds(20000));
}

#ifdef GAIA_FAULT_INJECT

class ServiceFaultInjection : public ::testing::Test {
protected:
  void TearDown() override {
    faultinject::configure(0.0, 1);
    faultinject::configureStall(0.0, 0);
    ServiceClock::resetForTest();
  }
};

/// The watchdog pin: a worker stalled blind (sleeping between poll
/// points, so cooperative cancellation cannot land) is first cancelled,
/// then its slot poisoned and replaced — and the replacement serves the
/// next job while the straggler is still asleep.
TEST_F(ServiceFaultInjection, WatchdogRecoversAStalledWorker) {
  faultinject::configure(0.0, 1);       // no thrown faults...
  faultinject::configureStall(1.0, 200); // ...every probe stalls 200 ms

  ServiceOptions SO;
  SO.Workers = 1;
  SO.QueueCapacity = 8;
  SO.WatchdogPollMs = 5;
  SO.WatchdogCancelMultiple = 2.0; // cancel at 20 ms of a 10 ms deadline
  SO.WatchdogPoisonMultiple = 4.0; // poison at 40 ms — mid-stall
  AnalysisService Svc(SO);

  ServiceTicketPtr Stuck = Svc.submit({cheapJob(), 10});
  awaitBusyWorker(Svc);
  // Let the job reach its first probe and start the blind 200 ms sleep,
  // then disarm the stall so the replacement worker runs clean (the
  // stall config is read live, so this also caps the straggler at the
  // stall it is already inside).
  std::this_thread::sleep_for(milliseconds(30));
  faultinject::configureStall(0.0, 0);

  ServiceTicketPtr Follow = Svc.submit({cheapJob(), 0});
  const ServiceOutcome &OF = Follow->wait();
  EXPECT_TRUE(OF.Ran);
  EXPECT_TRUE(OF.Outcome.Result.Ok) << OF.Outcome.Result.Error;

  // The straggler comes home when its sleep ends: ticket resolved with
  // a structured unwind, never lost.
  const ServiceOutcome &OS = Stuck->wait();
  EXPECT_TRUE(OS.Ran);
  EXPECT_FALSE(OS.Outcome.Result.Ok);
  EXPECT_TRUE(OS.Outcome.Result.Fail == FailKind::Cancelled ||
              OS.Outcome.Result.Fail == FailKind::Deadline)
      << failKindName(OS.Outcome.Result.Fail);

  ServiceStats St = Svc.stats();
  EXPECT_GE(St.WatchdogCancels, 1u);
  EXPECT_GE(St.WatchdogPoisoned, 1u);
  EXPECT_GE(St.WorkersReplaced, 1u);
  EXPECT_GT(faultinject::totalStalls(), 0u);

  Svc.drain(milliseconds(5000));
  EXPECT_TRUE(Svc.drained());
}

#else

TEST(ServiceFaultInjection, SkippedWithoutChaosBuild) {
  GTEST_SKIP() << "build with -DGAIA_FAULT_INJECT=ON for the chaos tests";
}

#endif // GAIA_FAULT_INJECT

} // namespace
