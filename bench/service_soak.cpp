//===- bench/service_soak.cpp - Resident-service overload soak ------------==//
///
/// \file
/// Soaks the resident serving layer (runtime/AnalysisService.h) under a
/// ramped open-loop load: legs at 0.5x / 1x / 2x / 4x of the *measured*
/// queue-free capacity (bench/BenchUtil.h, measureQueueFreeCapacity —
/// the same helper and query mix bench/throughput.cpp reports, so the
/// multiples are derived from this machine, never hardcoded). Each leg
/// paces trySubmit calls at the target rate for a fixed wall-clock
/// window, drains, and accounts for every single ticket:
///
///   - a job either ran to a structured result or was refused with
///     FailKind::Rejected — anything else (an unstructured failure, a
///     refusal without the Rejected kind) is counted and fails the run;
///   - admitted jobs that completed Ok and undegraded must be
///     bit-identical to the sequential oracle fingerprint;
///   - p50/p99 submission-to-fulfillment latency of the jobs that ran.
///
/// When built -DGAIA_FAULT_INJECT=ON the 2x leg runs under chaos: fault
/// probes armed, rare long stalls (the blind-sleep pathology that
/// defeats cooperative cancellation), a ResilienceManager ladder, and a
/// fast watchdog — the leg must still account for every ticket
/// structurally; watchdog escalations are recorded in the JSON.
///
/// Writes BENCH_service.json (override with BENCH_SERVICE_JSON; empty
/// skips) for bench/check_bench_regression.py --service. Env knobs:
///   BENCH_SERVICE_WORKERS      service worker threads   (default 4)
///   BENCH_SERVICE_SECONDS      seconds per leg          (default 1.0)
///   BENCH_SERVICE_DEADLINE_MS  per-request deadline     (default 250)
///   BENCH_SERVICE_QUEUE        admission queue capacity (default 64)
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/Report.h"
#include "runtime/AnalysisService.h"
#include "support/FaultInject.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

using namespace gaia;

namespace {

struct SoakConfig {
  uint32_t Workers = 4;
  uint32_t QueueCapacity = 64;
  uint32_t DeadlineMs = 250;
  double SecondsPerLeg = 1.0;
};

struct LegResult {
  double Multiple = 0;
  bool Chaos = false;
  double TargetRate = 0;
  uint64_t Submitted = 0;
  uint64_t Ran = 0;            ///< reached the analysis stack
  uint64_t NotAdmitted = 0;    ///< refused/shed (must all be Rejected)
  uint64_t CompletedOk = 0;
  uint64_t DeadlineMissed = 0;
  uint64_t Unstructured = 0;   ///< ran, failed, but FailKind::None
  uint64_t BadRejects = 0;     ///< refused without FailKind::Rejected
  uint64_t Mismatches = 0;     ///< undegraded Ok result != oracle
  double P50Ms = 0;
  double P99Ms = 0;
  uint64_t WatchdogCancels = 0;
  uint64_t WatchdogPoisoned = 0;
  uint64_t WorkersReplaced = 0;
  uint64_t FaultFires = 0;
  uint64_t Stalls = 0;

  double shedRate() const {
    return Submitted ? double(NotAdmitted) / double(Submitted) : 0;
  }
};

double percentile(std::vector<double> &Sorted, double Q) {
  if (Sorted.empty())
    return 0;
  size_t Idx = static_cast<size_t>(Q * double(Sorted.size() - 1) + 0.5);
  return Sorted[std::min(Idx, Sorted.size() - 1)];
}

/// One soak leg: open-loop pacing against a fresh service over the
/// frozen \p Cache. Open loop is the honest overload model — the
/// generator does not slow down when the service sheds, exactly like
/// independent clients would not.
LegResult runLeg(double Multiple, double CapacityJps, bool Chaos,
                 const SoakConfig &C,
                 const std::vector<AnalysisJob> &Queries,
                 const std::map<std::string, std::string> &Oracle,
                 const std::shared_ptr<const SharedCache> &Cache) {
  using Clock = std::chrono::steady_clock;

  ServiceOptions SO;
  SO.Workers = C.Workers;
  SO.QueueCapacity = C.QueueCapacity;
  SO.Admission = AdmitPolicy::ShedEarliestToMiss;
  SO.Shared = Cache;
#ifdef GAIA_FAULT_INJECT
  uint64_t FiresBefore = faultinject::totalFires();
  uint64_t StallsBefore = faultinject::totalStalls();
  if (Chaos) {
    SO.Resilience = std::make_shared<ResilienceManager>();
    SO.WatchdogPollMs = 10;
    // Rare long stalls: each one is blind to cancellation for longer
    // than the watchdog's cancel horizon (2 x deadline), so any stall
    // that lands exercises the escalation ladder.
    faultinject::configure(1e-4, 20260808);
    faultinject::configureStall(1e-6, 3 * C.DeadlineMs);
  }
#endif

  LegResult Leg;
  Leg.Multiple = Multiple;
  Leg.Chaos = Chaos;
  Leg.TargetRate = Multiple * CapacityJps;

  std::vector<std::pair<size_t, ServiceTicketPtr>> Tickets;
  Tickets.reserve(static_cast<size_t>(Leg.TargetRate * C.SecondsPerLeg) + 16);
  {
    AnalysisService Svc(SO);
    const std::chrono::duration<double> Interval(1.0 / Leg.TargetRate);
    const Clock::time_point Start = Clock::now();
    const Clock::time_point End =
        Start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(C.SecondsPerLeg));
    for (uint64_t N = 0;; ++N) {
      Clock::time_point Tick =
          Start +
          std::chrono::duration_cast<Clock::duration>(Interval * double(N));
      if (Tick >= End)
        break;
      std::this_thread::sleep_until(Tick);
      size_t QI = N % Queries.size();
      Tickets.emplace_back(QI, Svc.trySubmit({Queries[QI], C.DeadlineMs}));
    }
    Svc.drain(std::chrono::milliseconds(15000));

#ifdef GAIA_FAULT_INJECT
    if (Chaos) {
      faultinject::configure(0.0, 1);
      faultinject::configureStall(0.0, 0);
    }
    Leg.FaultFires = faultinject::totalFires() - FiresBefore;
    Leg.Stalls = faultinject::totalStalls() - StallsBefore;
#endif

    ServiceStats St = Svc.stats();
    Leg.DeadlineMissed = St.DeadlineMissed;
    Leg.WatchdogCancels = St.WatchdogCancels;
    Leg.WatchdogPoisoned = St.WatchdogPoisoned;
    Leg.WorkersReplaced = St.WorkersReplaced;

    std::vector<double> Latencies;
    Latencies.reserve(Tickets.size());
    for (const auto &[QI, Ticket] : Tickets) {
      ++Leg.Submitted;
      const ServiceOutcome &O = Ticket->wait();
      if (!O.Ran) {
        ++Leg.NotAdmitted;
        if (O.Outcome.Result.Fail != FailKind::Rejected)
          ++Leg.BadRejects;
        continue;
      }
      ++Leg.Ran;
      Latencies.push_back(O.LatencyMs);
      const AnalysisResult &R = O.Outcome.Result;
      if (R.Ok) {
        ++Leg.CompletedOk;
        if (!R.Degraded) {
          const AnalysisJob &J = Queries[QI];
          if (analysisFingerprint(R) != Oracle.at(J.Key + "|" + J.GoalSpec))
            ++Leg.Mismatches;
        }
      } else if (R.Fail == FailKind::None) {
        ++Leg.Unstructured;
      }
    }
    std::sort(Latencies.begin(), Latencies.end());
    Leg.P50Ms = percentile(Latencies, 0.50);
    Leg.P99Ms = percentile(Latencies, 0.99);
  }
  return Leg;
}

uint32_t envU32(const char *Name, uint32_t Default) {
  if (const char *E = std::getenv(Name))
    return std::max(1u, static_cast<uint32_t>(std::strtoul(E, nullptr, 10)));
  return Default;
}

} // namespace

int main() {
  SoakConfig C;
  C.Workers = envU32("BENCH_SERVICE_WORKERS", 4);
  C.QueueCapacity = envU32("BENCH_SERVICE_QUEUE", 64);
  C.DeadlineMs = envU32("BENCH_SERVICE_DEADLINE_MS", 250);
  if (const char *E = std::getenv("BENCH_SERVICE_SECONDS"))
    C.SecondsPerLeg = std::max(0.05, std::strtod(E, nullptr));

  std::vector<AnalysisJob> Queries = serviceQueryMix();

  // Warmed frozen tier over the published goals (the variant goals hit
  // the tier partially, as in bench/throughput.cpp).
  std::vector<AnalysisJob> Warmup;
  for (const BenchmarkProgram &B : table123Suite())
    Warmup.push_back({B.Key, B.Source, B.GoalSpec});
  std::string Err;
  std::shared_ptr<const SharedCache> Cache =
      SharedCache::build(Warmup, AnalyzerOptions{}, &Err);
  if (!Cache) {
    std::fprintf(stderr, "error: shared cache build failed: %s\n",
                 Err.c_str());
    return 1;
  }

  // Sequential oracle fingerprints: the bit-identity reference for
  // every admitted job and for the post-drain tier check.
  std::map<std::string, std::string> Oracle;
  for (const AnalysisJob &Q : Queries) {
    AnalysisResult R = analyzeProgram(Q.Source, Q.GoalSpec);
    if (!R.Ok) {
      std::fprintf(stderr, "error: oracle %s: %s\n", Q.Key.c_str(),
                   R.Error.c_str());
      return 1;
    }
    Oracle[Q.Key + "|" + Q.GoalSpec] = analysisFingerprint(R);
  }

  // Queue-free capacity baseline at 1/2/4/8 workers (plus the service's
  // worker count if it is not among them): the soak multiples are
  // derived from the measured figure, never hardcoded.
  std::vector<AnalysisJob> CapacityBatch;
  for (int R = 0; R != 2; ++R)
    CapacityBatch.insert(CapacityBatch.end(), Queries.begin(), Queries.end());
  std::vector<uint32_t> WorkerCounts = {1, 2, 4, 8};
  if (std::find(WorkerCounts.begin(), WorkerCounts.end(), C.Workers) ==
      WorkerCounts.end())
    WorkerCounts.push_back(C.Workers);
  std::vector<CapacityPoint> Capacity =
      measureQueueFreeCapacity(CapacityBatch, Cache, WorkerCounts);
  double CapacityJps = 0;
  for (const CapacityPoint &P : Capacity)
    if (P.Workers == C.Workers)
      CapacityJps = P.St.JobsPerSecond;
  if (CapacityJps <= 0) {
    std::fprintf(stderr, "error: no capacity measurement at %u workers\n",
                 C.Workers);
    return 1;
  }

  std::printf("=== resident-service overload soak ===\n");
  std::printf("workers: %u, queue: %u, deadline: %ums, %.2fs/leg\n",
              C.Workers, C.QueueCapacity, C.DeadlineMs, C.SecondsPerLeg);
  std::printf("queue-free capacity:");
  for (const CapacityPoint &P : Capacity)
    std::printf("  %uw=%.0f/s", P.Workers, P.St.JobsPerSecond);
  std::printf("\nsoak base (at %u workers): %.0f jobs/s\n\n", C.Workers,
              CapacityJps);
  std::printf("  mult  chaos  target/s  submitted     ran    shed  shed%%  "
              "p50(ms)  p99(ms)  wd(c/p/r)\n");

#ifdef GAIA_FAULT_INJECT
  const bool ChaosBuilt = true;
#else
  const bool ChaosBuilt = false;
#endif

  std::vector<LegResult> Legs;
  for (double Multiple : {0.5, 1.0, 2.0, 4.0}) {
    bool Chaos = ChaosBuilt && Multiple == 2.0;
    LegResult Leg =
        runLeg(Multiple, CapacityJps, Chaos, C, Queries, Oracle, Cache);
    std::printf("  %4.1fx  %5s  %8.0f  %9llu %7llu %7llu  %4.1f%%  %7.1f  "
                "%7.1f  %llu/%llu/%llu\n",
                Leg.Multiple, Leg.Chaos ? "yes" : "no", Leg.TargetRate,
                static_cast<unsigned long long>(Leg.Submitted),
                static_cast<unsigned long long>(Leg.Ran),
                static_cast<unsigned long long>(Leg.NotAdmitted),
                100.0 * Leg.shedRate(), Leg.P50Ms, Leg.P99Ms,
                static_cast<unsigned long long>(Leg.WatchdogCancels),
                static_cast<unsigned long long>(Leg.WatchdogPoisoned),
                static_cast<unsigned long long>(Leg.WorkersReplaced));
    Legs.push_back(Leg);
  }

  uint64_t UnstructuredTotal = 0, BadRejectTotal = 0, MismatchTotal = 0;
  for (const LegResult &L : Legs) {
    UnstructuredTotal += L.Unstructured;
    BadRejectTotal += L.BadRejects;
    MismatchTotal += L.Mismatches;
  }
  std::printf("\nunstructured failures: %llu; non-Rejected refusals: %llu; "
              "mismatches: %llu\n",
              static_cast<unsigned long long>(UnstructuredTotal),
              static_cast<unsigned long long>(BadRejectTotal),
              static_cast<unsigned long long>(MismatchTotal));

  const char *JsonPath = std::getenv("BENCH_SERVICE_JSON");
  if (!JsonPath)
    JsonPath = "BENCH_service.json";
  if (*JsonPath) {
    std::FILE *F = std::fopen(JsonPath, "w");
    if (!F) {
      std::fprintf(stderr, "error: cannot write %s\n", JsonPath);
      return 1;
    }
    std::fprintf(F,
                 "{\n  \"hardware_concurrency\": %u,\n"
                 "  \"workers\": %u,\n  \"queue_capacity\": %u,\n"
                 "  \"deadline_ms\": %u,\n  \"seconds_per_leg\": %.3f,\n"
                 "  \"chaos_built\": %s,\n",
                 std::thread::hardware_concurrency(), C.Workers,
                 C.QueueCapacity, C.DeadlineMs, C.SecondsPerLeg,
                 ChaosBuilt ? "true" : "false");
    std::fprintf(F, "  \"capacity\": [\n");
    for (size_t I = 0; I != Capacity.size(); ++I)
      std::fprintf(F, "    {\"workers\": %u, \"jobs_per_sec\": %.2f}%s\n",
                   Capacity[I].Workers, Capacity[I].St.JobsPerSecond,
                   I + 1 != Capacity.size() ? "," : "");
    std::fprintf(F, "  ],\n  \"capacity_jobs_per_sec\": %.2f,\n  \"legs\": [\n",
                 CapacityJps);
    for (size_t I = 0; I != Legs.size(); ++I) {
      const LegResult &L = Legs[I];
      std::fprintf(
          F,
          "    {\"multiple\": %.2f, \"chaos\": %s, \"target_rate\": %.1f, "
          "\"submitted\": %llu, \"ran\": %llu, \"not_admitted\": %llu, "
          "\"shed_rate\": %.4f, \"completed_ok\": %llu, "
          "\"deadline_missed\": %llu, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
          "\"unstructured_failures\": %llu, \"non_rejected_refusals\": %llu, "
          "\"mismatches\": %llu, \"watchdog_cancels\": %llu, "
          "\"watchdog_poisoned\": %llu, \"workers_replaced\": %llu, "
          "\"fault_fires\": %llu, \"stalls\": %llu}%s\n",
          L.Multiple, L.Chaos ? "true" : "false", L.TargetRate,
          static_cast<unsigned long long>(L.Submitted),
          static_cast<unsigned long long>(L.Ran),
          static_cast<unsigned long long>(L.NotAdmitted), L.shedRate(),
          static_cast<unsigned long long>(L.CompletedOk),
          static_cast<unsigned long long>(L.DeadlineMissed), L.P50Ms, L.P99Ms,
          static_cast<unsigned long long>(L.Unstructured),
          static_cast<unsigned long long>(L.BadRejects),
          static_cast<unsigned long long>(L.Mismatches),
          static_cast<unsigned long long>(L.WatchdogCancels),
          static_cast<unsigned long long>(L.WatchdogPoisoned),
          static_cast<unsigned long long>(L.WorkersReplaced),
          static_cast<unsigned long long>(L.FaultFires),
          static_cast<unsigned long long>(L.Stalls),
          I + 1 != Legs.size() ? "," : "");
    }
    std::fprintf(F,
                 "  ],\n  \"unstructured_total\": %llu,\n"
                 "  \"non_rejected_refusal_total\": %llu,\n"
                 "  \"identical_all\": %s\n}\n",
                 static_cast<unsigned long long>(UnstructuredTotal),
                 static_cast<unsigned long long>(BadRejectTotal),
                 MismatchTotal == 0 ? "true" : "false");
    std::fclose(F);
    std::printf("wrote %s\n", JsonPath);
  }

  if (UnstructuredTotal || BadRejectTotal || MismatchTotal) {
    std::fprintf(stderr, "FAIL: service soak found unstructured failures, "
                         "non-Rejected refusals, or oracle mismatches\n");
    return 1;
  }
  return 0;
}
