//===- runtime/Resilience.cpp ----------------------------------------------=//

#include "runtime/Resilience.h"

#include "core/InputPattern.h"
#include "runtime/SharedCache.h"
#include "support/FaultInject.h"

#include <chrono>
#include <exception>

using namespace gaia;

const char *gaia::recoveryRungName(RecoveryRung R) {
  switch (R) {
  case RecoveryRung::None:
    return "none";
  case RecoveryRung::ColdRetry:
    return "cold-retry";
  case RecoveryRung::TightBudgets:
    return "tight-budgets";
  case RecoveryRung::WidenToTop:
    return "widen-to-top";
  case RecoveryRung::Quarantined:
    return "quarantined";
  }
  return "unknown";
}

AnalysisResult gaia::containedAnalyze(const std::string &Source,
                                      const std::string &GoalSpec,
                                      const AnalyzerOptions &Opts) noexcept {
  try {
    return analyzeProgram(Source, GoalSpec, Opts);
  } catch (const std::exception &E) {
    AnalysisResult R;
    R.Fail = FailKind::Exception;
    R.Error = E.what();
    R.Converged = false;
    return R;
  } catch (...) {
    AnalysisResult R;
    R.Fail = FailKind::Exception;
    R.Error = "unknown exception escaped the analysis";
    R.Converged = false;
    return R;
  }
}

ResilienceManager::ResilienceManager(ResilienceOptions O) : Opts(O) {}

uint64_t ResilienceManager::fingerprint(const AnalysisJob &Job) {
  // Identity is the analysis input, not the reporting key: two jobs with
  // the same source and goal hit the same engine paths, so they share a
  // quarantine verdict.
  uint64_t H = std::hash<std::string>{}(Job.Source);
  uint64_t G = std::hash<std::string>{}(Job.GoalSpec);
  return H ^ (G * 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2));
}

bool ResilienceManager::ladderEligible(const AnalysisResult &R) {
  return !R.Ok &&
         (R.Fail == FailKind::Deadline || R.Fail == FailKind::Exception);
}

AnalysisResult ResilienceManager::widenToTopResult(const AnalysisJob &Job) {
  AnalysisResult R;
  R.Syms = std::make_shared<SymbolTable>();
  R.Converged = false;
  R.Degraded = true;
  std::string Err;
  std::optional<InputPattern> Pattern =
      parseInputPattern(Job.GoalSpec, &Err);
  if (!Pattern) {
    // An unparseable goal has no arity to build outputs for; this is a
    // deterministic input failure, not a degradable one.
    R.Error = Err;
    R.Fail = FailKind::BadQuery;
    R.Degraded = false;
    return R;
  }
  R.Ok = true;
  // Sound over-approximation of *any* behaviour of the job: the query
  // may succeed, and every argument may be anything. This is exactly
  // the engine's own abort-to-top answer, built without the engine.
  R.QuerySucceeds = true;
  for (uint32_t I = 0; I != Pattern->arity(); ++I)
    R.QueryOutput.push_back(TypeGraph::makeAny());
  return R;
}

bool ResilienceManager::isQuarantined(const AnalysisJob &Job) const {
  std::lock_guard<std::mutex> L(M);
  return Quarantine.count(fingerprint(Job)) != 0;
}

bool ResilienceManager::preCheck(const AnalysisJob &Job, AnalysisResult &Out,
                                 RecoveryRung &Rung, bool *Probe) {
  if (Probe)
    *Probe = false;
  {
    std::lock_guard<std::mutex> L(M);
    auto It = Quarantine.find(fingerprint(Job));
    if (It == Quarantine.end())
      return false;
    if (Opts.QuarantineProbeAfter != 0 &&
        It->second >= Opts.QuarantineProbeAfter) {
      // TTL expired: let this request through as a probe. The counter
      // resets now, so a caller that never reports the probe's outcome
      // degrades to "probe every QuarantineProbeAfter requests" rather
      // than probing on every subsequent one.
      It->second = 0;
      ++St.QuarantineProbes;
      if (Probe)
        *Probe = true;
      return false;
    }
    ++It->second;
    ++St.QuarantineShortCircuits;
  }
  Out = widenToTopResult(Job);
  Rung = RecoveryRung::Quarantined;
  return true;
}

void ResilienceManager::probeResult(const AnalysisJob &Job, bool Restored) {
  std::lock_guard<std::mutex> L(M);
  uint64_t F = fingerprint(Job);
  auto It = Quarantine.find(F);
  if (It == Quarantine.end())
    return; // released by a concurrent probe already
  if (Restored) {
    Quarantine.erase(It);
    Exhaustions.erase(F);
    ++St.QuarantineReleases;
  } else {
    It->second = 0; // failed probe: re-arm for a full TTL window
  }
}

AnalysisResult ResilienceManager::recover(const AnalysisJob &Job,
                                          const AnalyzerOptions &BaseOpts,
                                          AnalysisResult First,
                                          const Attempt &RunAttempt,
                                          RecoveryRung &Rung,
                                          uint32_t &Attempts) {
  {
    std::lock_guard<std::mutex> L(M);
    ++St.FirstAttemptFailures;
  }

  // Rung 1: cold retry. Bypassing the shared tier rules out the only
  // cross-job state as the failure source; for transient faults the
  // retry alone is usually enough.
  AnalyzerOptions Cold = BaseOpts;
  Cold.Shared = nullptr;
  {
    std::lock_guard<std::mutex> L(M);
    ++St.ColdRetries;
  }
  AnalysisResult R = RunAttempt(Cold, Attempts++);
  if (R.Ok) {
    std::lock_guard<std::mutex> L(M);
    ++St.ColdRetrySuccesses;
    // A ladder success resets the exhaustion streak: quarantine is for
    // jobs that exhaust *consecutively* (a deterministic poison job
    // always does), not for transient faults spread over many repeats
    // of the same query.
    Exhaustions.erase(fingerprint(Job));
    Rung = RecoveryRung::ColdRetry;
    return R;
  }
  if (!ladderEligible(R)) {
    // The retry surfaced a deterministic failure (e.g. the first attempt
    // died to a transient fault before reaching the parser, the retry
    // reached it and found a parse error): report that, it is the more
    // precise diagnosis.
    Rung = RecoveryRung::ColdRetry;
    return R;
  }

  // Rung 2: cold + tightened budgets. A job that blew its deadline gets
  // budgets small enough to converge coarsely or abort-to-top quickly
  // (MaxInputPatterns = 1 collapses polyvariance, the usual blowup).
  AnalyzerOptions Tight = Cold;
  Tight.MaxFixpointRounds = Opts.TightMaxFixpointRounds;
  Tight.MaxInputPatterns = Opts.TightMaxInputPatterns;
  Tight.CollectDelta = false; // a coarse run's entries must not promote
  {
    std::lock_guard<std::mutex> L(M);
    ++St.TightRetries;
  }
  R = RunAttempt(Tight, Attempts++);
  if (R.Ok) {
    std::lock_guard<std::mutex> L(M);
    ++St.TightRetrySuccesses;
    Exhaustions.erase(fingerprint(Job)); // success: streak broken
    Rung = RecoveryRung::TightBudgets;
    // Tight budgets can change precision relative to the configured run:
    // the answer is sound but not the normal output — fingerprint-level
    // consumers must be able to tell.
    R.Degraded = true;
    return R;
  }

  // Ladder exhausted: the sound floor, plus quarantine bookkeeping so a
  // repeat offender stops reaching workers at all.
  {
    std::lock_guard<std::mutex> L(M);
    ++St.WidenToTopFallbacks;
    uint64_t F = fingerprint(Job);
    if (++Exhaustions[F] >= Opts.QuarantineThreshold &&
        !Quarantine.count(F)) {
      Quarantine.emplace(F, 0u);
      Exhaustions.erase(F);
      ++St.QuarantinedJobs;
    }
  }
  Rung = RecoveryRung::WidenToTop;
  AnalysisResult Floor = widenToTopResult(Job);
  if (Floor.Ok && !First.Error.empty())
    Floor.Error = "degraded to top after: " + First.Error;
  return Floor;
}

ResilienceStats ResilienceManager::stats() const {
  std::lock_guard<std::mutex> L(M);
  return St;
}

JobOutcome gaia::runContainedJob(const AnalysisJob &Job,
                                 const AnalyzerOptions &Opts,
                                 ResilienceManager *Res,
                                 uint64_t FaultSaltBase) noexcept {
  JobOutcome O;
  auto Start = std::chrono::steady_clock::now();
  // Belt over the containment: containedAnalyze and the ladder are
  // themselves noexcept/contained, but this function is the last frame
  // before a worker loop — an escape here would terminate the process,
  // so even "impossible" throws (an allocator failure building the
  // outcome string, say) get converted to a structured failure.
  try {
    bool Probe = false;
    if (Res && Res->preCheck(Job, O.Result, O.Rung, &Probe)) {
      // Quarantined: answered from the floor without running anything.
      O.Attempts = 0;
      O.Seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
      return O;
    }

    // One contained attempt. The chaos fault stream (a no-op unless the
    // build has GAIA_FAULT_INJECT) is armed per (job, attempt), so the
    // fault plan depends only on the batch composition and the seed —
    // never on which worker drew the job — and a retry draws a fresh
    // stream, making injected faults behave like transient errors.
    auto RunAttempt = [&](const AnalyzerOptions &AOpts,
                          uint32_t AttemptIdx) {
#ifdef GAIA_FAULT_INJECT
      faultinject::JobScope Scope(FaultSaltBase + AttemptIdx);
      AnalysisResult R = containedAnalyze(Job.Source, Job.GoalSpec, AOpts);
      O.FaultFires += Scope.fires();
      return R;
#else
      (void)FaultSaltBase;
      (void)AttemptIdx;
      return containedAnalyze(Job.Source, Job.GoalSpec, AOpts);
#endif
    };

    O.Result = RunAttempt(Opts, 0);
    if (!O.Result.Ok && Res && ResilienceManager::ladderEligible(O.Result))
      O.Result = Res->recover(Job, Opts, std::move(O.Result), RunAttempt,
                              O.Rung, O.Attempts);
    if (Probe)
      Res->probeResult(Job, O.Result.Ok && !O.Result.Degraded);
  } catch (...) {
    O.Result = AnalysisResult();
    O.Result.Fail = FailKind::Exception;
    O.Result.Error = "exception escaped the job runner";
    O.Result.Converged = false;
  }
  O.Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  return O;
}

BatchStats gaia::summarizeBatch(const std::vector<AnalysisJob> &Jobs,
                                const std::vector<JobOutcome> &Out,
                                double WallSeconds) {
  BatchStats S;
  S.Jobs = static_cast<uint32_t>(Out.size());
  S.WallSeconds = WallSeconds;
  S.JobsPerSecond = WallSeconds > 0 ? double(Out.size()) / WallSeconds : 0.0;
  for (size_t I = 0; I != Out.size(); ++I) {
    const JobOutcome &O = Out[I];
    S.SharedHits += O.Result.Stats.OpCacheSharedHits;
    S.DeltaHits += O.Result.Stats.OpCacheHits;
    S.Misses += O.Result.Stats.OpCacheMisses;
    S.AllOk = S.AllOk && O.Result.Ok;
    S.AllConverged = S.AllConverged && O.Result.Converged;
    if (!O.Result.Ok) {
      ++S.Failed;
      if (S.FirstError.empty())
        S.FirstError = Jobs[I].Key + ": " + O.Result.Error;
    } else if (O.Result.Degraded) {
      ++S.Degraded;
    } else if (O.Rung == RecoveryRung::ColdRetry) {
      ++S.Recovered;
    }
  }
  return S;
}
