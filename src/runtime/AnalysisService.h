//===- runtime/AnalysisService.h - Resident analysis front-end ------------==//
///
/// \file
/// The one worker runtime, layered over ResilienceManager and
/// TierLifecycle: AnalysisService accepts a continuous stream of
/// submissions and makes *load* — not just individual jobs — unable to
/// take the process down. A fixed batch is one wave on it: submit every
/// job, then wait for every ticket (runBatch below). Design (see
/// DESIGN.md, "Serving and overload"):
///
///   - a bounded MPMC admission queue with an explicit policy: Block
///     (classic backpressure), RejectNewest (fail fast), or the
///     deadline-aware ShedEarliestToMiss (evict the queued job most
///     likely to blow its deadline in favour of one that can still make
///     it). Rejection is never an exception and never silent: every
///     refused or shed job's ticket is fulfilled with a structured
///     AnalysisResult carrying FailKind::Rejected.
///   - backpressure surfaced to callers: trySubmit never blocks, and
///     ServiceStats exposes queue depth/age gauges plus an overload
///     state machine (Healthy -> Saturated -> Shedding) driven by queue
///     age against per-request deadlines. Under sustained overload the
///     service sheds at admission instead of burning workers on jobs
///     that would blow their deadline waiting.
///   - a watchdog thread for the failure cooperative cancellation
///     cannot handle: a worker wedged *between* poll points. Past a
///     wall-clock multiple of the job's deadline the watchdog arms the
///     job's cancel token; past a larger multiple it poisons the worker
///     slot, detaches the stuck thread (the one argued detach in this
///     codebase — the thread is left to unwind on its own) and spawns a
///     replacement so capacity self-heals. Everything a stuck thread
///     can still touch is owned by a shared_ptr state block, so it can
///     never dangle, and its ticket is still fulfilled when it finally
///     comes home.
///   - a graceful lifecycle: drain(budget) closes admission, flushes
///     the queue for up to the budget, sheds the remainder with
///     structured results, runs the TierLifecycle::endBatch promotion
///     path over the deltas completed jobs harvested, and joins the
///     workers. The post-drain tier serves a fresh batch bit-identically
///     (caching is observationally invisible; see ROADMAP).
///
/// All queue-side time arithmetic goes through ServiceClock
/// (support/Clock.h) so tests can age the queue without sleeping.
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_RUNTIME_ANALYSISSERVICE_H
#define GAIA_RUNTIME_ANALYSISSERVICE_H

#include "runtime/Resilience.h"
#include "runtime/SharedCache.h"
#include "runtime/TierLifecycle.h"
#include "support/Clock.h"

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

namespace gaia {

/// What happens when a submission finds the admission queue full.
enum class AdmitPolicy : uint8_t {
  Block,             ///< submit() waits for space (trySubmit still fails fast)
  RejectNewest,      ///< the new submission is rejected
  ShedEarliestToMiss,///< evict the queued job with the nearest deadline —
                     ///< the one most likely to miss — if the newcomer's
                     ///< horizon is farther; otherwise reject the newcomer
};

const char *admitPolicyName(AdmitPolicy P);

/// Queue-age-driven overload ladder. Healthy: jobs flow. Saturated: the
/// queue is deep (or aging) enough that callers should back off —
/// admission still accepts. Shedding: the queue head has waited past
/// its deadline horizon; deadline-carrying submissions that cannot be
/// served in time are rejected at admission.
enum class OverloadState : uint8_t { Healthy, Saturated, Shedding };

const char *overloadStateName(OverloadState S);

struct ServiceOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency() (min 1).
  uint32_t Workers = 0;
  /// Bound on admitted-but-unstarted jobs. The queue is the only elastic
  /// buffer in the service; everything beyond it is policy.
  uint32_t QueueCapacity = 64;
  AdmitPolicy Admission = AdmitPolicy::Block;
  /// Analyzer configuration applied to every job. Opts.DeadlineMs is the
  /// default per-request deadline (a ServiceRequest may override it);
  /// the deadline is end-to-end from admission, so a job that waited in
  /// the queue runs with only its remaining budget.
  AnalyzerOptions Opts;
  /// Initial frozen shared tier (may be null: jobs run cold and drain()
  /// skips the lifecycle rotation).
  std::shared_ptr<const SharedCache> Shared;
  /// Optional retry-with-degradation ladder (runtime/Resilience.h);
  /// null = no retries. Exception containment is unconditional.
  std::shared_ptr<ResilienceManager> Resilience;
  /// Lifecycle policy for the drain-time endBatch rotation.
  LifecyclePolicy Lifecycle;
  /// Harvest hot delta-cache entries from completed jobs; drain()'s
  /// rotation promotes them into the next tier.
  bool CollectDeltas = false;
  uint32_t DeltaMinHits = 2;
  /// Overload state machine: Saturated when queue depth reaches this
  /// fraction of QueueCapacity (or the head has aged half its shedding
  /// horizon).
  double SaturatedDepthFraction = 0.5;
  /// Shedding when the queue head has waited this fraction of its own
  /// deadline (1.0 = the head has already missed it while queued).
  double SheddingAgeFraction = 1.0;
  /// Watchdog scan period in milliseconds; 0 disables the watchdog
  /// thread entirely (cooperative cancellation remains).
  uint32_t WatchdogPollMs = 50;
  /// Arm the job's cancel token when it has run past this multiple of
  /// its deadline (only deadline-carrying jobs are watched).
  double WatchdogCancelMultiple = 2.0;
  /// Poison the worker slot and spawn a replacement past this multiple.
  double WatchdogPoisonMultiple = 4.0;
};

/// One submission: the job plus an optional per-request deadline
/// override (0 = use ServiceOptions::Opts.DeadlineMs).
struct ServiceRequest {
  AnalysisJob Job;
  uint32_t DeadlineMs = 0;
};

/// What a ticket resolves to.
struct ServiceOutcome {
  /// The analysis outcome (or the structured Rejected result for jobs
  /// the serving layer refused or shed).
  JobOutcome Outcome;
  /// True when the job reached the analysis stack (including quarantine
  /// short-circuits); false when admission control or shedding answered
  /// it with FailKind::Rejected.
  bool Ran = false;
  /// Submission-to-fulfillment latency on the service clock.
  double LatencyMs = 0;
  /// Admission sequence number (0 for jobs rejected at admission).
  uint64_t Seq = 0;
};

class AnalysisService;

/// The caller's handle on one submission. Fulfilled exactly once — by a
/// worker, by admission control, or by drain-time shedding — and safe
/// to wait on from any thread.
class ServiceTicket {
public:
  /// \p WaveCancel is the caller's token (ServiceOptions::Opts.Cancel):
  /// the job's own token reads as cancelled once it is.
  explicit ServiceTicket(std::shared_ptr<const CancelToken> WaveCancel)
      : Token(std::make_shared<CancelToken>(std::move(WaveCancel))) {}

  /// Blocks until the outcome is available.
  const ServiceOutcome &wait() const {
    std::unique_lock<std::mutex> L(M);
    CV.wait(L, [&] { return Done; });
    return Out;
  }

  /// Non-blocking readiness check.
  bool done() const {
    std::lock_guard<std::mutex> L(M);
    return Done;
  }

  /// Cooperative caller-side cancellation of this job: the worker polls
  /// the same token the watchdog escalates on. The ticket still resolves
  /// (with FailKind::Cancelled if the cancel lands mid-run). Tripping
  /// ServiceOptions::Opts.Cancel withdraws every job the same way.
  void cancel() { Token->cancel(); }

private:
  friend class AnalysisService;
  friend std::vector<JobOutcome> runBatch(AnalysisService &,
                                          const std::vector<AnalysisJob> &,
                                          BatchStats *);

  void fulfill(ServiceOutcome O) {
    {
      std::lock_guard<std::mutex> L(M);
      if (Done)
        return; // fulfillment is first-writer-wins
      Out = std::move(O);
      Done = true;
    }
    CV.notify_all();
  }

  std::shared_ptr<CancelToken> token() const { return Token; }

  mutable std::mutex M;
  mutable std::condition_variable CV;
  ServiceOutcome Out;
  bool Done = false;
  std::shared_ptr<CancelToken> Token;
};

using ServiceTicketPtr = std::shared_ptr<ServiceTicket>;

/// Counters are monotone over the service's lifetime; gauges are a
/// snapshot taken under the service lock by stats().
struct ServiceStats {
  // Counters.
  uint64_t Submitted = 0;          ///< submit/trySubmit calls
  uint64_t Admitted = 0;           ///< entered the queue
  uint64_t Completed = 0;          ///< ran on a worker to a structured result
  uint64_t RejectedQueueFull = 0;  ///< refused by the admission policy
  uint64_t RejectedDraining = 0;   ///< submitted after drain began
  uint64_t RejectedShedding = 0;   ///< shed at admission under overload
  uint64_t ShedQueued = 0;         ///< admitted but shed before running
                                   ///< (deadline expired queued, policy
                                   ///< eviction, or drain)
  uint64_t DeadlineMissed = 0;     ///< completed past their deadline
  uint64_t WatchdogCancels = 0;    ///< stuck jobs whose token was armed
  uint64_t WatchdogPoisoned = 0;   ///< worker slots poisoned
  uint64_t WorkersReplaced = 0;    ///< replacement threads spawned
  // Gauges.
  uint32_t QueueDepth = 0;
  uint32_t PeakQueueDepth = 0;
  double OldestQueuedMs = 0;       ///< age of the queue head (0 if empty)
  uint32_t BusyWorkers = 0;
  uint32_t Workers = 0;
  OverloadState State = OverloadState::Healthy;
  double AvgJobMs = 0;             ///< EWMA of completed-job run time
};

/// The resident front-end. Construction starts the workers (and the
/// watchdog); drain() is the graceful shutdown; the destructor drains
/// with a zero flush budget (shedding anything still queued) if the
/// caller did not.
class AnalysisService {
public:
  explicit AnalysisService(ServiceOptions Options);
  ~AnalysisService();

  AnalysisService(const AnalysisService &) = delete;
  AnalysisService &operator=(const AnalysisService &) = delete;

  /// Submits one job under the admission policy. Always returns a
  /// ticket; a refused job's ticket is already fulfilled with
  /// FailKind::Rejected. Block policy: blocks while the queue is full.
  ServiceTicketPtr submit(ServiceRequest R);

  /// Backpressure fast path: never blocks regardless of policy. A full
  /// queue (or a draining service) yields an immediately-fulfilled
  /// Rejected ticket the caller can inspect to back off.
  ServiceTicketPtr trySubmit(ServiceRequest R);

  ServiceStats stats() const;
  OverloadState overloadState() const;
  uint32_t workers() const;

  /// Graceful shutdown. Closes admission (later submissions are
  /// Rejected), lets workers flush the queue for up to \p FlushBudget
  /// of real wall time, sheds whatever is still queued with structured
  /// Rejected results, cancels in-flight jobs past the budget, joins
  /// the workers and the watchdog, and runs the TierLifecycle::endBatch
  /// promotion over the harvested deltas. Call at most once (the
  /// destructor calls it with a zero budget if needed); a stuck worker
  /// that the watchdog already detached does not block the join.
  void drain(std::chrono::milliseconds FlushBudget);

  bool drained() const;

  /// The current frozen tier: the construction-time tier until drain(),
  /// the promoted one after. Null when the service was built tierless.
  std::shared_ptr<const SharedCache> tier() const;

  /// Lifecycle counters for the drain-time rotation (zeros when the
  /// service was built tierless).
  LifecycleStats lifecycleStats() const;

private:
  struct Impl;
  struct WorkerSlot;

  static void workerLoop(std::shared_ptr<Impl> In,
                         std::shared_ptr<WorkerSlot> Slot);
  static void watchdogLoop(std::shared_ptr<Impl> In);

  ServiceTicketPtr submitImpl(ServiceRequest R, bool AllowBlock);

  /// Everything workers (and a detached straggler) can touch, owned by
  /// shared_ptr: the service object may die while a poisoned thread is
  /// still unwinding.
  std::shared_ptr<Impl> In;
};

/// Runs \p Jobs as one wave on \p Svc: submits every job, then waits
/// for every ticket, and returns the outcomes in job order. Under
/// AdmitPolicy::Block nothing is refused (submit waits for queue
/// space); under the other policies an overflowing job's outcome is its
/// structured Rejected result. The wave's figures, timed from the first
/// submit to the last fulfilment, land in \p Stats when non-null.
std::vector<JobOutcome> runBatch(AnalysisService &Svc,
                                 const std::vector<AnalysisJob> &Jobs,
                                 BatchStats *Stats = nullptr);

} // namespace gaia

#endif // GAIA_RUNTIME_ANALYSISSERVICE_H
