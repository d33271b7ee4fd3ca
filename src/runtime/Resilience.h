//===- runtime/Resilience.h - Failure containment and degradation ---------==//
///
/// \file
/// The serving runtime's failure-handling layer: exception containment
/// for worker threads plus the retry-with-degradation ladder. Design
/// (see DESIGN.md, "Failure taxonomy and degradation ladder"):
///
///   attempt 0: the configured run (shared tier, normal budgets)
///   rung 1:    retry *cold* — bypass the shared tier, ruling out the
///              one piece of cross-job state as the failure source
///   rung 2:    retry cold with tightened budgets — a pathological job
///              converges (coarsely) or aborts fast instead of burning
///              its deadline again
///   rung 3:    the widen-to-top floor — the sound answer the engine's
///              own abort path already defines: every output is Any.
///              Always succeeds; maximally imprecise (Degraded = true).
///
/// Only transient-shaped failures climb the ladder (Deadline and
/// Exception). Deterministic input failures (ParseError, BadQuery)
/// retry identically and are returned as-is; a Cancelled job's caller
/// asked for the unwind and gets it.
///
/// A job that exhausts rungs 1–2 repeatedly — consecutively, with no
/// intervening ladder success — is *quarantined*: the manager remembers
/// its (source, goal) fingerprint and answers it from the widen-to-top
/// floor immediately, so a poison job never re-enters the hot path to
/// take a worker hostage again.
///
/// Quarantine is not a life sentence: a fingerprint condemned by a run
/// of *transient* faults (an injected bad_alloc streak, a deadline blown
/// under momentary overload) would otherwise be stuck on the floor
/// forever. After QuarantineProbeAfter short-circuits the next request
/// for the fingerprint is let through as a *probe*; a probe that earns a
/// non-degraded result releases the quarantine, a probe that fails (or
/// only survives degraded) re-arms it for another TTL window.
///
/// The manager is shared by all workers of a service (and may be shared
/// by several services); every method is thread-safe.
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_RUNTIME_RESILIENCE_H
#define GAIA_RUNTIME_RESILIENCE_H

#include "core/Analyzer.h"

#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace gaia {

struct AnalysisJob; // runtime/SharedCache.h

/// Ladder configuration.
struct ResilienceOptions {
  /// Rung-2 budget overrides: a retry that previously blew a deadline
  /// gets budgets small enough to terminate (or abort-to-top) quickly.
  uint32_t TightMaxFixpointRounds = 256;
  uint32_t TightMaxInputPatterns = 1;
  /// Consecutive ladder exhaustions (rungs 1-2 both failed, with no
  /// intervening ladder success for the same fingerprint) before the
  /// job is quarantined. A deterministic poison job always exhausts
  /// consecutively; transient faults spread over repeats of the same
  /// query break the streak on every recovery.
  uint32_t QuarantineThreshold = 2;
  /// Count-based quarantine TTL: after this many quarantine
  /// short-circuits for a fingerprint, the next request probes through
  /// to a real run so a transiently-condemned job can re-earn full
  /// service (the probe's outcome is reported back via probeResult).
  /// 0 restores the pre-TTL behaviour: quarantine is permanent.
  uint32_t QuarantineProbeAfter = 8;
};

/// Which rung produced a job's final result.
enum class RecoveryRung : uint8_t {
  None,        ///< first attempt succeeded (or failure was not eligible)
  ColdRetry,   ///< rung 1: shared tier bypassed
  TightBudgets,///< rung 2: cold + tightened budgets
  WidenToTop,  ///< rung 3: the sound floor
  Quarantined, ///< answered from the floor without touching a worker
};

const char *recoveryRungName(RecoveryRung R);

/// One finished job (the unit AnalysisService tickets deliver).
struct JobOutcome {
  AnalysisResult Result;
  double Seconds = 0;  ///< wall time of this job on its worker
  uint32_t Worker = 0; ///< index of the worker that ran it
  /// Which resilience rung produced Result (None: the first attempt —
  /// or the job failed with no ladder configured / an ineligible kind).
  RecoveryRung Rung = RecoveryRung::None;
  /// Analysis attempts consumed (1 = no retries; 0 = quarantined jobs,
  /// which never reach the engine).
  uint32_t Attempts = 1;
  /// Injected chaos faults that fired during this job's attempts (0
  /// unless the build has GAIA_FAULT_INJECT and a fault plan is armed).
  uint64_t FaultFires = 0;
};

/// Aggregate figures for one batch of jobs: a pure summary of the
/// batch's outcomes plus its wall time (see summarizeBatch).
struct BatchStats {
  uint32_t Jobs = 0;
  double WallSeconds = 0;
  double JobsPerSecond = 0;
  /// Summed op-cache counters across jobs.
  uint64_t SharedHits = 0; ///< resolved in the frozen shared tier
  uint64_t DeltaHits = 0;  ///< resolved in a job's private delta
  uint64_t Misses = 0;     ///< computed fresh
  bool AllOk = true;
  bool AllConverged = true;
  /// Jobs whose final result (after any ladder) is still a failure.
  uint32_t Failed = 0;
  /// Ok jobs whose result came from a degrading rung (tight budgets or
  /// the widen-to-top floor) rather than the configured analysis.
  uint32_t Degraded = 0;
  /// Ok jobs rescued by a non-degrading retry (the cold rung).
  uint32_t Recovered = 0;
  /// "<job key>: <error>" for the first failed job in job order (empty
  /// when Failed == 0); the bench/gate chain surfaces it.
  std::string FirstError;

  double sharedHitRate() const {
    uint64_t Total = SharedHits + DeltaHits + Misses;
    return Total ? double(SharedHits) / double(Total) : 0.0;
  }
};

/// Summarizes a finished batch: \p Out[I] is the outcome of \p Jobs[I],
/// and the batch took \p WallSeconds end to end.
BatchStats summarizeBatch(const std::vector<AnalysisJob> &Jobs,
                          const std::vector<JobOutcome> &Out,
                          double WallSeconds);

/// Per-rung counters (monotone; read under the manager's lock).
struct ResilienceStats {
  uint64_t FirstAttemptFailures = 0;
  uint64_t ColdRetries = 0;
  uint64_t ColdRetrySuccesses = 0;
  uint64_t TightRetries = 0;
  uint64_t TightRetrySuccesses = 0;
  uint64_t WidenToTopFallbacks = 0;
  uint64_t QuarantinedJobs = 0;         ///< fingerprints ever quarantined
  uint64_t QuarantineShortCircuits = 0; ///< jobs answered from quarantine
  uint64_t QuarantineProbes = 0;   ///< TTL expiries let through as probes
  uint64_t QuarantineReleases = 0; ///< probes that re-earned full service
};

/// Runs analyzeProgram with full exception containment: any C++
/// exception that escapes the analysis (parser, std::bad_alloc, an
/// internal invariant, an injected chaos fault) is converted into a
/// structured failure (Ok = false, Fail = FailKind::Exception, Error =
/// what()). This is the only analysis entry point service workers use;
/// with it, a worker thread cannot die to a per-job failure.
AnalysisResult containedAnalyze(const std::string &Source,
                                const std::string &GoalSpec,
                                const AnalyzerOptions &Opts) noexcept;

class ResilienceManager {
public:
  /// One analysis attempt: runs the job under the given options and
  /// returns its (contained — the callable must not throw) result. The
  /// attempt index distinguishes retries, e.g. for fault-stream seeding.
  using Attempt =
      std::function<AnalysisResult(const AnalyzerOptions &, uint32_t)>;

  explicit ResilienceManager(ResilienceOptions Opts = {});

  /// Quarantine short-circuit: when \p Job is quarantined, fills \p Out
  /// with the widen-to-top floor result, sets \p Rung, and returns true
  /// — the caller must not run the job. Returns false otherwise.
  /// When the fingerprint's quarantine TTL has expired the job is let
  /// through as a *probe*: preCheck returns false, sets \p Probe (when
  /// non-null) to true, and the caller must report how the probe fared
  /// via probeResult() — dropping the report leaves the fingerprint
  /// quarantined with a reset TTL window, which is safe but slow.
  bool preCheck(const AnalysisJob &Job, AnalysisResult &Out,
                RecoveryRung &Rung, bool *Probe = nullptr);

  /// Reports a probe's outcome. \p Restored means the job earned a
  /// non-degraded Ok (first attempt or the cold rung): the fingerprint
  /// is released from quarantine and its exhaustion history cleared.
  /// Otherwise the quarantine re-arms for another TTL window.
  void probeResult(const AnalysisJob &Job, bool Restored);

  /// True when \p R is a failure the ladder may retry (Deadline or
  /// Exception). ParseError/BadQuery are deterministic; Cancelled is the
  /// caller's own request.
  static bool ladderEligible(const AnalysisResult &R);

  /// Runs the ladder for \p Job after its first attempt failed with
  /// \p First (which must be ladderEligible). \p RunAttempt performs one
  /// retry; \p BaseOpts are the job's configured options. On return,
  /// \p Rung is the rung that produced the result and \p Attempts has
  /// been incremented once per retry performed.
  AnalysisResult recover(const AnalysisJob &Job,
                         const AnalyzerOptions &BaseOpts,
                         AnalysisResult First, const Attempt &RunAttempt,
                         RecoveryRung &Rung, uint32_t &Attempts);

  /// The sound floor: Ok, Degraded, every output slot Any. Built without
  /// running the engine (a floor that could itself fail is no floor).
  static AnalysisResult widenToTopResult(const AnalysisJob &Job);

  ResilienceStats stats() const;
  ResilienceOptions options() const { return Opts; }
  bool isQuarantined(const AnalysisJob &Job) const;

private:
  static uint64_t fingerprint(const AnalysisJob &Job);

  const ResilienceOptions Opts;
  mutable std::mutex M;
  ResilienceStats St;
  /// fingerprint -> consecutive ladder exhaustions so far (reset by any
  /// ladder success for the fingerprint; not yet quarantined).
  std::unordered_map<uint64_t, uint32_t> Exhaustions;
  /// fingerprint -> short-circuits served since quarantine (or since the
  /// last failed probe). Membership is the quarantine verdict; the count
  /// is the TTL clock.
  std::unordered_map<uint64_t, uint32_t> Quarantine;
};

/// Runs one job end-to-end under the full containment stack every
/// AnalysisService worker runs: quarantine preCheck (with probe-through
/// reporting), one contained attempt with a deterministic per-(job,
/// attempt) chaos-fault scope, and — when \p Res is non-null and the
/// failure is ladder-eligible — the recovery ladder. \p FaultSaltBase
/// seeds the fault stream (the convention is (admission seq - 1) * 251,
/// so the first job submitted gets salt 0; the attempt index is added
/// per retry), so the fault plan depends only on job identity, never on
/// which worker ran it.
/// noexcept: this is the last frame before a worker loop — even
/// "impossible" throws become structured failures.
JobOutcome runContainedJob(const AnalysisJob &Job,
                           const AnalyzerOptions &Opts,
                           ResilienceManager *Res,
                           uint64_t FaultSaltBase) noexcept;

} // namespace gaia

#endif // GAIA_RUNTIME_RESILIENCE_H
