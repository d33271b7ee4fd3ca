//===- runtime/AnalysisService.cpp -----------------------------------------=//

#include "runtime/AnalysisService.h"

#include <algorithm>
#include <deque>
#include <thread>

using namespace gaia;

const char *gaia::admitPolicyName(AdmitPolicy P) {
  switch (P) {
  case AdmitPolicy::Block:
    return "block";
  case AdmitPolicy::RejectNewest:
    return "reject-newest";
  case AdmitPolicy::ShedEarliestToMiss:
    return "shed-earliest-to-miss";
  }
  return "unknown";
}

const char *gaia::overloadStateName(OverloadState S) {
  switch (S) {
  case OverloadState::Healthy:
    return "healthy";
  case OverloadState::Saturated:
    return "saturated";
  case OverloadState::Shedding:
    return "shedding";
  }
  return "unknown";
}

namespace {

double msSince(ServiceClock::TimePoint From, ServiceClock::TimePoint To) {
  return std::chrono::duration<double, std::milli>(To - From).count();
}

/// The structured refusal every non-admitted job gets. Never an
/// exception, never silent: FailKind::Rejected with a reason.
JobOutcome rejectedOutcome(const std::string &Why) {
  JobOutcome O;
  O.Result.Ok = false;
  O.Result.Fail = FailKind::Rejected;
  O.Result.Error = Why;
  O.Result.Converged = false;
  O.Attempts = 0;
  return O;
}

} // namespace

/// One worker thread's identity card. All fields are guarded by
/// Impl::M. The slot object — not the thread index — is what a worker
/// loop holds, so a poisoned slot swapped out of Impl::Slots stays
/// valid for the straggler that still owns it.
struct AnalysisService::WorkerSlot {
  bool Busy = false;
  uint64_t Seq = 0; ///< admission seq of the running job (Busy only)
  ServiceClock::TimePoint BusySince{};
  uint32_t DeadlineMs = 0; ///< running job's deadline (0 = unwatched)
  std::shared_ptr<CancelToken> Cancel;
  bool CancelArmed = false; ///< watchdog rung 1 fired for this job
  bool Poisoned = false;    ///< watchdog rung 2: exit after current job
};

/// Everything the service's threads touch. shared_ptr-owned (by the
/// facade, by every worker, by the watchdog), so a detached straggler
/// can outlive the facade without dangling.
struct AnalysisService::Impl {
  explicit Impl(ServiceOptions O) : Options(std::move(O)) {
    if (Options.QueueCapacity == 0)
      Options.QueueCapacity = 1;
  }

  /// One admitted-but-unstarted job.
  struct Entry {
    AnalysisJob Job;
    uint32_t DeadlineMs = 0; ///< resolved (request override or default)
    bool HasDeadline = false;
    ServiceClock::TimePoint EnqueuedAt{};
    ServiceClock::TimePoint DeadlineAt{}; ///< meaningful iff HasDeadline
    ServiceTicketPtr Ticket;
    uint64_t Seq = 0;
  };

  /// Recomputes the overload state from the queue head's age. Requires M.
  void refreshOverload() {
    OverloadState S = OverloadState::Healthy;
    if (!Queue.empty()) {
      const Entry &Head = Queue.front();
      double AgeMs = msSince(Head.EnqueuedAt, ServiceClock::now());
      double ShedAtMs = Head.HasDeadline
                            ? Options.SheddingAgeFraction * Head.DeadlineMs
                            : 0;
      if (Head.HasDeadline && AgeMs >= ShedAtMs)
        S = OverloadState::Shedding;
      else if (Queue.size() >=
                   static_cast<size_t>(Options.SaturatedDepthFraction *
                                       Options.QueueCapacity) ||
               (Head.HasDeadline && AgeMs >= 0.5 * ShedAtMs))
        S = OverloadState::Saturated;
    }
    State = S;
  }

  ServiceOptions Options; ///< immutable after construction
  std::mutex M;
  std::condition_variable NotEmpty; ///< workers wait for jobs / shutdown
  std::condition_variable NotFull;  ///< Block-policy submitters wait here
  std::condition_variable Idle;     ///< drain waits for a quiet service
  std::condition_variable WatchCV;  ///< watchdog's interruptible timer

  std::deque<Entry> Queue;                        ///< guarded by M
  std::vector<std::shared_ptr<WorkerSlot>> Slots; ///< guarded by M
  std::vector<std::thread> Threads; ///< mutated only by ctor/watchdog/drain
  std::thread Watchdog;

  bool Draining = false; ///< admission closed
  bool Stopping = false; ///< workers must exit
  bool Drained = false;  ///< drain() finished
  uint64_t NextSeq = 0;
  uint32_t Busy = 0; ///< workers currently running a job
  ServiceStats St;   ///< counters + PeakQueueDepth (gauges built on read)
  OverloadState State = OverloadState::Healthy;
  double EwmaJobMs = 0;
};

AnalysisService::AnalysisService(ServiceOptions Options)
    : In(std::make_shared<Impl>(std::move(Options))) {
  uint32_t N = In->Options.Workers;
  if (N == 0) {
    N = std::thread::hardware_concurrency();
    if (N == 0)
      N = 1;
  }
  In->Slots.reserve(N);
  In->Threads.reserve(N);
  for (uint32_t I = 0; I != N; ++I) {
    auto Slot = std::make_shared<WorkerSlot>();
    In->Slots.push_back(Slot);
    In->Threads.emplace_back(&AnalysisService::workerLoop, In, Slot);
  }
  if (In->Options.WatchdogPollMs != 0)
    In->Watchdog = std::thread(&AnalysisService::watchdogLoop, In);
}

AnalysisService::~AnalysisService() {
  if (!drained())
    drain(std::chrono::milliseconds(0));
}

ServiceTicketPtr AnalysisService::submit(ServiceRequest R) {
  return submitImpl(std::move(R),
                    In->Options.Admission == AdmitPolicy::Block);
}

ServiceTicketPtr AnalysisService::trySubmit(ServiceRequest R) {
  return submitImpl(std::move(R), /*AllowBlock=*/false);
}

ServiceTicketPtr AnalysisService::submitImpl(ServiceRequest R,
                                             bool AllowBlock) {
  auto Ticket = std::make_shared<ServiceTicket>(In->Options.Opts.Cancel);
  uint32_t DeadlineMs =
      R.DeadlineMs != 0 ? R.DeadlineMs : In->Options.Opts.DeadlineMs;

  // A ticket shed out of the queue by ShedEarliestToMiss; fulfilled
  // after the lock drops.
  ServiceTicketPtr Evicted;
  ServiceOutcome EvictedOut;

  {
    std::unique_lock<std::mutex> L(In->M);
    ++In->St.Submitted;

    auto rejectLocked = [&](uint64_t &Counter, const std::string &Why) {
      ++Counter;
      L.unlock();
      ServiceOutcome O;
      O.Outcome = rejectedOutcome(Why);
      Ticket->fulfill(std::move(O));
      return Ticket;
    };

    if (In->Draining)
      return rejectLocked(In->St.RejectedDraining,
                          "rejected: service is draining");

    // Overload shedding at admission: when the queue head is already
    // past its horizon, a deadline-carrying newcomer whose estimated
    // wait exceeds its own deadline would only be shed later at dequeue
    // — refuse it now, while the caller can still do something about it.
    In->refreshOverload();
    if (In->State == OverloadState::Shedding && DeadlineMs != 0) {
      uint32_t W = std::max<uint32_t>(
          1, static_cast<uint32_t>(In->Threads.size()));
      double EstWaitMs =
          static_cast<double>(In->Queue.size() + 1) * In->EwmaJobMs / W;
      if (EstWaitMs >= DeadlineMs)
        return rejectLocked(In->St.RejectedShedding,
                            "rejected: shed at admission under overload");
    }

    if (In->Queue.size() >= In->Options.QueueCapacity) {
      AdmitPolicy P = In->Options.Admission;
      if (P == AdmitPolicy::Block && !AllowBlock)
        P = AdmitPolicy::RejectNewest; // trySubmit never blocks
      switch (P) {
      case AdmitPolicy::Block:
        In->NotFull.wait(L, [&] {
          return In->Draining ||
                 In->Queue.size() < In->Options.QueueCapacity;
        });
        if (In->Draining)
          return rejectLocked(In->St.RejectedDraining,
                              "rejected: service is draining");
        break;
      case AdmitPolicy::RejectNewest:
        return rejectLocked(In->St.RejectedQueueFull,
                            "rejected: admission queue full");
      case AdmitPolicy::ShedEarliestToMiss: {
        // Evict the queued job with the nearest deadline — the one most
        // likely to miss anyway — but only if the newcomer's horizon is
        // farther (no deadline = infinitely far). Otherwise the newcomer
        // IS the earliest-to-miss: reject it instead.
        auto Victim = In->Queue.end();
        for (auto It = In->Queue.begin(); It != In->Queue.end(); ++It)
          if (It->HasDeadline &&
              (Victim == In->Queue.end() ||
               It->DeadlineAt < Victim->DeadlineAt))
            Victim = It;
        bool NewcomerFarther =
            Victim != In->Queue.end() &&
            (DeadlineMs == 0 ||
             ServiceClock::now() + std::chrono::milliseconds(DeadlineMs) >
                 Victim->DeadlineAt);
        if (!NewcomerFarther)
          return rejectLocked(In->St.RejectedQueueFull,
                              "rejected: admission queue full");
        ++In->St.ShedQueued;
        Evicted = Victim->Ticket;
        EvictedOut.Outcome =
            rejectedOutcome("rejected: shed for a later-deadline job");
        EvictedOut.LatencyMs =
            msSince(Victim->EnqueuedAt, ServiceClock::now());
        EvictedOut.Seq = Victim->Seq;
        In->Queue.erase(Victim);
        break;
      }
      }
    }

    Impl::Entry E;
    E.Job = std::move(R.Job);
    E.DeadlineMs = DeadlineMs;
    E.HasDeadline = DeadlineMs != 0;
    E.EnqueuedAt = ServiceClock::now();
    if (E.HasDeadline)
      E.DeadlineAt = E.EnqueuedAt + std::chrono::milliseconds(DeadlineMs);
    E.Ticket = Ticket;
    E.Seq = ++In->NextSeq;
    ++In->St.Admitted;
    In->Queue.push_back(std::move(E));
    In->St.PeakQueueDepth = std::max(
        In->St.PeakQueueDepth, static_cast<uint32_t>(In->Queue.size()));
  }
  if (Evicted)
    Evicted->fulfill(std::move(EvictedOut));
  In->NotEmpty.notify_one();
  return Ticket;
}

void AnalysisService::workerLoop(std::shared_ptr<Impl> In,
                                 std::shared_ptr<WorkerSlot> Slot) {
  for (;;) {
    Impl::Entry E;
    {
      std::unique_lock<std::mutex> L(In->M);
      In->NotEmpty.wait(L, [&] {
        return In->Stopping || Slot->Poisoned || !In->Queue.empty();
      });
      if (In->Stopping || Slot->Poisoned)
        return;
      E = std::move(In->Queue.front());
      In->Queue.pop_front();

      // Dequeue-time shed: a job whose deadline expired while queued
      // would only burn a worker to produce FailKind::Deadline; answer
      // it structurally instead.
      if (E.HasDeadline && ServiceClock::now() >= E.DeadlineAt) {
        ++In->St.ShedQueued;
        bool Quiet = In->Queue.empty() && In->Busy == 0;
        L.unlock();
        In->NotFull.notify_one();
        ServiceOutcome O;
        O.Outcome = rejectedOutcome("rejected: deadline expired in queue");
        O.LatencyMs = msSince(E.EnqueuedAt, ServiceClock::now());
        O.Seq = E.Seq;
        E.Ticket->fulfill(std::move(O));
        if (Quiet)
          In->Idle.notify_all();
        continue;
      }

      Slot->Busy = true;
      Slot->Seq = E.Seq;
      Slot->BusySince = ServiceClock::now();
      Slot->DeadlineMs = E.DeadlineMs;
      Slot->Cancel = E.Ticket->token();
      Slot->CancelArmed = false;
      ++In->Busy;
    }
    In->NotFull.notify_one();

    // The deadline is end-to-end from admission: a job that waited gets
    // only its remaining budget (floored at 1ms so the analyzer's own
    // poll reports Deadline rather than us guessing here).
    AnalyzerOptions JobOpts = In->Options.Opts;
    JobOpts.Shared = In->Options.Shared;
    JobOpts.Cancel = Slot->Cancel;
    if (E.HasDeadline) {
      double RemainMs = msSince(ServiceClock::now(), E.DeadlineAt);
      JobOpts.DeadlineMs =
          static_cast<uint32_t>(std::max(1.0, RemainMs));
    }

    JobOutcome O = runContainedJob(E.Job, JobOpts,
                                   In->Options.Resilience.get(),
                                   (E.Seq - 1) * 251);

    ServiceOutcome Out;
    double JobMs = O.Seconds * 1e3;
    Out.LatencyMs = msSince(E.EnqueuedAt, ServiceClock::now());
    Out.Seq = E.Seq;
    Out.Ran = true;
    Out.Outcome = std::move(O);

    bool ExitPoisoned = false;
    {
      std::lock_guard<std::mutex> L(In->M);
      ++In->St.Completed;
      if (E.HasDeadline && ServiceClock::now() > E.DeadlineAt)
        ++In->St.DeadlineMissed;
      In->EwmaJobMs = In->EwmaJobMs == 0
                          ? JobMs
                          : 0.8 * In->EwmaJobMs + 0.2 * JobMs;
      Slot->Busy = false;
      Slot->Cancel = nullptr;
      Slot->DeadlineMs = 0;
      Slot->CancelArmed = false;
      --In->Busy;
      ExitPoisoned = Slot->Poisoned;
    }
    E.Ticket->fulfill(std::move(Out));
    {
      std::lock_guard<std::mutex> L(In->M);
      if (In->Queue.empty() && In->Busy == 0)
        In->Idle.notify_all();
    }
    // A poisoned slot's thread has already been replaced (and this
    // thread detached): deliver the result, then disappear quietly.
    if (ExitPoisoned)
      return;
  }
}

void AnalysisService::watchdogLoop(std::shared_ptr<Impl> In) {
  const auto Poll = std::chrono::milliseconds(In->Options.WatchdogPollMs);
  std::unique_lock<std::mutex> L(In->M);
  while (!In->Stopping) {
    In->WatchCV.wait_for(L, Poll);
    if (In->Stopping)
      return;
    In->refreshOverload();
    for (size_t I = 0; I != In->Slots.size(); ++I) {
      WorkerSlot &S = *In->Slots[I];
      if (!S.Busy || S.DeadlineMs == 0)
        continue;
      double ElapsedMs = msSince(S.BusySince, ServiceClock::now());
      if (!S.CancelArmed &&
          ElapsedMs >
              In->Options.WatchdogCancelMultiple * S.DeadlineMs) {
        // Rung 1: the job blew well past its deadline without the
        // cooperative signal unwinding it — arm the token so the next
        // poll point (if the job ever reaches one) stops it.
        S.Cancel->cancel();
        S.CancelArmed = true;
        ++In->St.WatchdogCancels;
      } else if (S.CancelArmed && !S.Poisoned &&
                 ElapsedMs >
                     In->Options.WatchdogPoisonMultiple * S.DeadlineMs) {
        // Rung 2: the cancel didn't land — the worker is wedged between
        // poll points. Poison the slot, abandon the thread to unwind on
        // its own (everything it touches is shared_ptr-owned), and
        // spawn a replacement so capacity self-heals. This detach is
        // the one argued suppression of gaia-lint's no-detached-thread
        // rule: join here would block the watchdog on the very thread
        // it decided is stuck.
        S.Poisoned = true;
        ++In->St.WatchdogPoisoned;
        In->Threads[I].detach();
        auto Fresh = std::make_shared<WorkerSlot>();
        In->Slots[I] = Fresh;
        In->Threads[I] =
            std::thread(&AnalysisService::workerLoop, In, Fresh);
        ++In->St.WorkersReplaced;
        In->NotEmpty.notify_all();
      }
    }
  }
}

void AnalysisService::drain(std::chrono::milliseconds FlushBudget) {
  {
    std::lock_guard<std::mutex> L(In->M);
    if (In->Drained)
      return;
    In->Draining = true;
  }
  // Wake Block-policy submitters (they reject now) and the watchdog.
  In->NotFull.notify_all();
  In->WatchCV.notify_all();

  std::deque<Impl::Entry> Shed;
  {
    std::unique_lock<std::mutex> L(In->M);
    // Flush phase: workers keep dequeuing; the budget is real wall time
    // (not ServiceClock — a test that skews the clock to age the queue
    // must not also shrink the flush window).
    auto Until = std::chrono::steady_clock::now() + FlushBudget;
    In->Idle.wait_until(L, Until, [&] {
      return In->Queue.empty() && In->Busy == 0;
    });
    // Shed phase: whatever is still queued gets a structured refusal,
    // and in-flight jobs are cancelled — drain must terminate even if
    // the queue could never flush in the budget.
    Shed.swap(In->Queue);
    In->St.ShedQueued += Shed.size();
    for (const auto &Slot : In->Slots)
      if (Slot->Busy && Slot->Cancel)
        Slot->Cancel->cancel();
    In->Stopping = true;
  }
  In->NotEmpty.notify_all();
  In->NotFull.notify_all();
  In->WatchCV.notify_all();
  for (Impl::Entry &E : Shed) {
    ServiceOutcome O;
    O.Outcome = rejectedOutcome("rejected: shed at drain");
    O.LatencyMs = msSince(E.EnqueuedAt, ServiceClock::now());
    O.Seq = E.Seq;
    E.Ticket->fulfill(std::move(O));
  }

  // Join the watchdog first: it is the only other mutator of Threads,
  // so after this join the vector is stable. A worker the watchdog
  // already detached is not joinable and cannot block shutdown.
  if (In->Watchdog.joinable())
    In->Watchdog.join();
  for (std::thread &T : In->Threads)
    if (T.joinable())
      T.join();

  std::lock_guard<std::mutex> L(In->M);
  In->Drained = true;
}

ServiceStats AnalysisService::stats() const {
  std::lock_guard<std::mutex> L(In->M);
  In->refreshOverload();
  ServiceStats S = In->St;
  S.QueueDepth = static_cast<uint32_t>(In->Queue.size());
  S.OldestQueuedMs =
      In->Queue.empty()
          ? 0
          : msSince(In->Queue.front().EnqueuedAt, ServiceClock::now());
  S.BusyWorkers = In->Busy;
  S.Workers = static_cast<uint32_t>(In->Threads.size());
  S.State = In->State;
  S.AvgJobMs = In->EwmaJobMs;
  return S;
}

OverloadState AnalysisService::overloadState() const {
  std::lock_guard<std::mutex> L(In->M);
  In->refreshOverload();
  return In->State;
}

uint32_t AnalysisService::workers() const {
  std::lock_guard<std::mutex> L(In->M);
  return static_cast<uint32_t>(In->Threads.size());
}

bool AnalysisService::drained() const {
  std::lock_guard<std::mutex> L(In->M);
  return In->Drained;
}

std::vector<JobOutcome> gaia::runBatch(AnalysisService &Svc,
                                       const std::vector<AnalysisJob> &Jobs,
                                       BatchStats *Stats) {
  auto Start = std::chrono::steady_clock::now();
  std::vector<ServiceTicketPtr> Tickets;
  Tickets.reserve(Jobs.size());
  for (const AnalysisJob &J : Jobs)
    Tickets.push_back(Svc.submit({J, 0}));
  std::vector<JobOutcome> Out;
  Out.reserve(Jobs.size());
  // The wave holds the only references to its tickets, so each outcome
  // moves out once its ticket resolves.
  for (const ServiceTicketPtr &T : Tickets) {
    T->wait();
    Out.push_back(std::move(T->Out.Outcome));
  }
  double Wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  if (Stats)
    *Stats = summarizeBatch(Jobs, Out, Wall);
  return Out;
}
