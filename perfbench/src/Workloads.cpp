//===- perfbench/src/Workloads.cpp ------------------------------------------=//

#include "Workloads.h"

#include "Golden.h"
#include "Trace.h"
#include "TracedAnalyze.h"

#include "core/Report.h"
#include "runtime/AnalysisService.h"
#include "runtime/SharedCache.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <numeric>
#include <random>
#include <thread>

using namespace gaia;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

/// Set-up is repeated this many times per run and its median reported,
/// so one slow start does not decide setup_s.
constexpr uint32_t SetupRepeats = 25;
/// Service workers: half the threads of the 4-thread reference host, so
/// the workers, the request generator and the service's watchdog never
/// want more threads than the host has, even when other tenants load it.
constexpr uint32_t ServiceWorkers = 2;
/// Requests the warm-service generator keeps outstanding (two per
/// worker, so the queue never runs dry between a completion and the
/// next submission).
constexpr uint32_t Outstanding = 2 * ServiceWorkers;
/// How often the generator looks for completed tickets. Short against a
/// job (about 3 ms), and the queue holds a job per worker in reserve.
constexpr auto PollInterval = std::chrono::microseconds(200);
/// Spans each traced thread keeps in memory for the trace file.
constexpr size_t SpanCapPerThread = size_t(1) << 16;
/// Failure reasons kept for the report.
constexpr size_t MaxErrors = 8;

struct WorkloadSpec {
  const char *Name;
  uint32_t OrCap;
  bool Warm;
};

const WorkloadSpec Specs[] = {
    {"cold-orcap0", 0, false},
    {"cold-orcap2", 2, false},
    {"warm-service", 0, true},
};

const WorkloadSpec *findSpec(const std::string &Name) {
  for (const WorkloadSpec &S : Specs)
    if (Name == S.Name)
      return &S;
  return nullptr;
}

/// Everything the seed decides goes through this generator.
class Rng {
public:
  explicit Rng(uint64_t Seed) : G(Seed) {}
  size_t below(size_t N) { return static_cast<size_t>(G() % N); }
  void shuffle(std::vector<size_t> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  std::mt19937_64 G;
};

/// Checked-analysis accounting.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors;

  void fail(std::string Why) {
    ++Failed;
    if (Errors.size() < MaxErrors)
      Errors.push_back(std::move(Why));
  }
  bool check(const GoldenMap &Golden, const Query &Q,
             const AnalysisResult &R) {
    ++Attempted;
    std::string Why;
    if (checkResult(Golden, Q, R, &Why))
      return true;
    fail(std::move(Why));
    return false;
  }
  void merge(const Tally &O) {
    Attempted += O.Attempted;
    Failed += O.Failed;
    for (const std::string &E : O.Errors)
      if (Errors.size() < MaxErrors)
        Errors.push_back(E);
  }
};

/// Engine, op-cache and widening counters summed over analyses.
struct Counters {
  uint64_t ProcIters = 0, ClauseIters = 0, InputPatterns = 0;
  uint64_t EntryLookups = 0, EntryCompares = 0, FixpointAborts = 0;
  uint64_t OpHits = 0, OpMisses = 0, OpSharedHits = 0;
  uint64_t InternedGraphs = 0;
  uint64_t PfHits = 0, PfMisses = 0, PfSharedHits = 0;
  uint64_t WidenInvocations = 0, ClashWalks = 0, WidenCacheHits = 0;

  void add(const AnalysisResult &R) {
    const EngineStats &S = R.Stats;
    ProcIters += S.ProcedureIterations;
    ClauseIters += S.ClauseIterations;
    InputPatterns += S.InputPatterns;
    EntryLookups += S.EntryLookups;
    EntryCompares += S.EntryCompares;
    FixpointAborts += S.FixpointAborts;
    OpHits += S.OpCacheHits;
    OpMisses += S.OpCacheMisses;
    OpSharedHits += S.OpCacheSharedHits;
    InternedGraphs += S.InternedGraphs;
    PfHits += S.PfSetHits;
    PfMisses += S.PfSetMisses;
    PfSharedHits += S.PfSetSharedHits;
    WidenInvocations += R.WStats.Invocations;
    ClashWalks += R.WStats.ClashWalks;
    WidenCacheHits += R.WStats.CacheHits;
  }
  void merge(const Counters &O) {
    ProcIters += O.ProcIters;
    ClauseIters += O.ClauseIters;
    InputPatterns += O.InputPatterns;
    EntryLookups += O.EntryLookups;
    EntryCompares += O.EntryCompares;
    FixpointAborts += O.FixpointAborts;
    OpHits += O.OpHits;
    OpMisses += O.OpMisses;
    OpSharedHits += O.OpSharedHits;
    InternedGraphs += O.InternedGraphs;
    PfHits += O.PfHits;
    PfMisses += O.PfMisses;
    PfSharedHits += O.PfSharedHits;
    WidenInvocations += O.WidenInvocations;
    ClashWalks += O.ClashWalks;
    WidenCacheHits += O.WidenCacheHits;
  }
};

double ratio(double Num, double Den) { return Den != 0 ? Num / Den : 0.0; }

/// Nearest-rank percentile of \p V (\p P in (0, 1]); 0 when empty.
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * double(V.size())));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double mean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  return std::accumulate(V.begin(), V.end(), 0.0) / double(V.size());
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Geometric mean over queries of each query's mean latency, so every
/// program weighs the same whatever its cost. The mean, not the median:
/// the host runs in a fast and a slow regime, and a query's median jumps
/// between them as their shares of a run change, while its mean moves
/// in proportion.
double geomeanOfMeans(const std::vector<std::vector<double>> &PerQuery,
                      uint64_t *Queries) {
  double LogSum = 0;
  uint64_t N = 0;
  for (const std::vector<double> &L : PerQuery) {
    if (L.empty())
      continue;
    LogSum += std::log(mean(L));
    ++N;
  }
  *Queries = N;
  return N ? std::exp(LogSum / double(N)) : 0.0;
}

/// What the timed phases need; built by setUp.
struct Setup {
  std::vector<Query> Queries;
  GoldenMap Golden;
  /// Options of every analysis; Shared holds the tier for warm-service.
  AnalyzerOptions Opts;
  std::unique_ptr<AnalysisService> Service;
  double TierBuildSeconds = 0;
};

ServiceTicketPtr submitQuery(AnalysisService &Service, const Query &Q) {
  ServiceRequest Req;
  Req.Job = AnalysisJob{Q.Key, Q.Source, Q.GoalSpec};
  return Service.submit(std::move(Req));
}

/// Checks a service outcome; a refused job counts as failed.
bool checkOutcome(Tally &T, const GoldenMap &Golden, const Query &Q,
                  const ServiceOutcome &O) {
  if (!O.Ran) {
    ++T.Attempted;
    T.fail(Q.id() + ": rejected by the service");
    return false;
  }
  return T.check(Golden, Q, O.Outcome.Result);
}

/// Loads inputs and golden outputs, builds the tier and starts the
/// service (warm-service), and runs one untimed settle pass over every
/// query. Returns false if any step fails.
bool setUp(const WorkloadSpec &Spec, const std::string &GoldenDir, Setup &S,
           Tally &T) {
  S.Queries = Spec.Warm ? serviceQueries() : publishedQueries();
  std::string Err;
  if (!loadGolden(goldenPath(GoldenDir, Spec.OrCap), S.Golden, &Err)) {
    T.fail(Err);
    return false;
  }
  S.Opts = AnalyzerOptions();
  S.Opts.OrCap = Spec.OrCap;
  if (!Spec.Warm) {
    for (const Query &Q : S.Queries)
      T.check(S.Golden, Q, analyzeProgram(Q.Source, Q.GoalSpec, S.Opts));
    return true;
  }

  std::vector<AnalysisJob> Warmup;
  for (const Query &Q : publishedQueries())
    Warmup.push_back({Q.Key, Q.Source, Q.GoalSpec});
  auto BuildStart = Clock::now();
  std::shared_ptr<const SharedCache> Tier =
      SharedCache::build(Warmup, S.Opts, &Err);
  S.TierBuildSeconds = secondsSince(BuildStart);
  if (!Tier || !Tier->compatibleWith(S.Opts)) {
    T.fail("shared tier build failed: " + Err);
    return false;
  }
  ServiceOptions SO;
  SO.Workers = ServiceWorkers;
  SO.Admission = AdmitPolicy::Block;
  SO.Opts = S.Opts;
  SO.Shared = Tier;
  S.Opts.Shared = Tier;
  S.Service = std::make_unique<AnalysisService>(SO);
  std::vector<ServiceTicketPtr> Tickets;
  for (const Query &Q : S.Queries)
    Tickets.push_back(submitQuery(*S.Service, Q));
  for (size_t I = 0; I != Tickets.size(); ++I)
    checkOutcome(T, S.Golden, S.Queries[I], Tickets[I]->wait());
  return true;
}

/// Latencies and accounting of one timed phase.
struct PhaseOut {
  std::vector<double> LatMs;
  std::vector<std::vector<double>> PerQuery;
  /// Time spent inside analysis calls (direct loops) or on workers
  /// (service), summed over threads.
  double BusyS = 0;
  double WallS = 0;
  uint64_t Correct = 0;
  uint64_t Degraded = 0;
  uint64_t Rejected = 0;
  std::vector<double> QueueWaitMs;
  std::vector<double> RunMs;
  Counters Sum;
  Tally T;

  void record(size_t Query, double Ms) {
    LatMs.push_back(Ms);
    PerQuery[Query].push_back(Ms);
  }
  void merge(const PhaseOut &O) {
    LatMs.insert(LatMs.end(), O.LatMs.begin(), O.LatMs.end());
    PerQuery.resize(std::max(PerQuery.size(), O.PerQuery.size()));
    for (size_t I = 0; I != O.PerQuery.size(); ++I)
      PerQuery[I].insert(PerQuery[I].end(), O.PerQuery[I].begin(),
                         O.PerQuery[I].end());
    BusyS += O.BusyS;
    Correct += O.Correct;
    Degraded += O.Degraded;
    Rejected += O.Rejected;
    Sum.merge(O.Sum);
    T.merge(O.T);
  }
};

/// Closed-loop clients calling the analyzer directly, each on its own
/// thread. A Shuffled client runs whole passes over the queries in a
/// seed-shuffled order; otherwise each request is drawn at random.
/// Traced clients run tracedAnalyze on a thread tracer.
PhaseOut directLoop(const Setup &S, double Seconds, uint64_t Seed,
                    bool Traced, uint32_t Clients, bool Shuffled) {
  const size_t N = S.Queries.size();
  std::vector<PhaseOut> Parts(Clients);
  auto Start = Clock::now();
  auto Client = [&](uint32_t Id) {
    PhaseOut &P = Parts[Id];
    P.PerQuery.resize(N);
    if (Traced)
      enableThreadTracing(SpanCapPerThread);
    Rng R(Seed + 0x9e3779b97f4a7c15ULL * (Id + 1));
    std::vector<size_t> Order(N);
    std::iota(Order.begin(), Order.end(), 0);
    size_t Pos = N;
    while (true) {
      size_t I;
      if (Shuffled) {
        if (Pos == N) {
          if (secondsSince(Start) >= Seconds)
            break;
          R.shuffle(Order);
          Pos = 0;
        }
        I = Order[Pos++];
      } else {
        if (secondsSince(Start) >= Seconds)
          break;
        I = R.below(N);
      }
      const Query &Q = S.Queries[I];
      try {
        auto T0 = Clock::now();
        AnalysisResult Res = Traced
                                 ? tracedAnalyze(Q.Source, Q.GoalSpec, S.Opts)
                                 : analyzeProgram(Q.Source, Q.GoalSpec, S.Opts);
        double Dt = secondsSince(T0);
        P.BusyS += Dt;
        P.record(I, Dt * 1e3);
        P.Degraded += Res.Degraded;
        P.Sum.add(Res);
        P.Correct += P.T.check(S.Golden, Q, Res);
      } catch (const std::exception &E) {
        ++P.T.Attempted;
        P.T.fail(Q.id() + ": exception: " + E.what());
      }
    }
  };
  std::vector<std::thread> Threads;
  for (uint32_t Id = 0; Id != Clients; ++Id)
    Threads.emplace_back(Client, Id);
  for (std::thread &Th : Threads)
    Th.join();
  PhaseOut Out;
  Out.PerQuery.resize(N);
  for (const PhaseOut &P : Parts)
    Out.merge(P);
  Out.WallS = secondsSince(Start);
  return Out;
}

/// One generator thread keeping Outstanding requests in the service,
/// drawing queries at random. It refills as soon as any request
/// completes (a short poll: tickets complete out of order, and waiting
/// on the oldest would let a long job starve the workers). Requests
/// still in flight when the time is up are waited for and counted.
PhaseOut serviceLoop(Setup &S, double Seconds, uint64_t Seed) {
  const size_t N = S.Queries.size();
  PhaseOut Out;
  Out.PerQuery.resize(N);
  Rng R(Seed);
  std::vector<std::pair<size_t, ServiceTicketPtr>> InFlight;
  auto Submit = [&] {
    size_t I = R.below(N);
    InFlight.emplace_back(I, submitQuery(*S.Service, S.Queries[I]));
  };
  auto Start = Clock::now();
  for (uint32_t K = 0; K != Outstanding; ++K)
    Submit();
  while (!InFlight.empty()) {
    bool Progress = false;
    for (size_t K = 0; K < InFlight.size();) {
      if (!InFlight[K].second->done()) {
        ++K;
        continue;
      }
      auto [I, Ticket] = std::move(InFlight[K]);
      InFlight.erase(InFlight.begin() + K);
      Progress = true;
      Out.WallS = secondsSince(Start);
      // Refill before checking, so the check never holds back the load.
      if (Out.WallS < Seconds)
        Submit();
      const ServiceOutcome &O = Ticket->wait();
      const Query &Q = S.Queries[I];
      Out.record(I, O.LatencyMs);
      if (O.Ran) {
        Out.BusyS += O.Outcome.Seconds;
        Out.RunMs.push_back(O.Outcome.Seconds * 1e3);
        Out.QueueWaitMs.push_back(
            std::max(0.0, O.LatencyMs - O.Outcome.Seconds * 1e3));
        Out.Degraded += O.Outcome.Result.Degraded;
      } else {
        ++Out.Rejected;
      }
      Out.Correct += checkOutcome(Out.T, S.Golden, Q, O);
    }
    if (!Progress)
      std::this_thread::sleep_for(PollInterval);
  }
  return Out;
}

/// Peak resident set of this process image, from /proc/self/status.
/// VmHWM, unlike getrusage's ru_maxrss, starts afresh at exec, so the
/// launcher's own footprint does not leak into the figure.
double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.compare(0, 6, "VmHWM:") == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB
  return 0;
}

/// Runs SetupRepeats set-ups, keeping the last, and records their
/// durations. Returns false if one could not complete.
bool repeatedSetUp(const WorkloadSpec &Spec, const std::string &GoldenDir,
                   Setup &S, Tally &T, std::vector<double> *Times,
                   std::vector<double> *TierBuilds) {
  for (uint32_t K = 0; K != SetupRepeats; ++K) {
    S = Setup(); // stops the previous service before the clock starts
    auto T0 = Clock::now();
    bool Ok = setUp(Spec, GoldenDir, S, T);
    Times->push_back(secondsSince(T0));
    TierBuilds->push_back(S.TierBuildSeconds);
    if (!Ok)
      return false;
  }
  return true;
}

void addMetric(RunResult &Res, std::string Name, double Value,
               std::string Unit) {
  Res.Metrics.push_back({std::move(Name), Value, std::move(Unit)});
}

/// The untraced run: the end-to-end metrics.
void endToEnd(const WorkloadSpec &Spec, const RunConfig &Cfg, Setup &S,
              RunResult &Res, Tally &T) {
  PhaseOut P = Spec.Warm
                   ? serviceLoop(S, Cfg.Seconds, Cfg.Seed)
                   : directLoop(S, Cfg.Seconds, Cfg.Seed, /*Traced=*/false,
                                /*Clients=*/1, /*Shuffled=*/true);
  T.merge(P.T);
  // The cold client's rate is taken over its time inside analyzeProgram
  // (the golden check between calls is the benchmark's own work); the
  // service's over the wall time, since its workers run concurrently
  // with the generator's checks.
  double Rate = Spec.Warm ? ratio(double(P.Correct), P.WallS)
                          : ratio(double(P.Correct), P.BusyS);
  uint64_t Queries = 0;
  double Geomean = geomeanOfMeans(P.PerQuery, &Queries);
  addMetric(Res, "analyses_per_s", Rate, "1/s");
  addMetric(Res, "latency_p50_ms", percentile(P.LatMs, 0.50), "ms");
  addMetric(Res, "latency_p99_ms", percentile(P.LatMs, 0.99), "ms");
  addMetric(Res, "latency_geomean_ms", Geomean, "ms");
  Res.Samples.push_back({"latency", P.LatMs.size()});
  Res.Samples.push_back({"geomean_queries", Queries});
}

/// The traced run: per-layer metrics, per analysis of the traced phase.
void perLayer(const WorkloadSpec &Spec, const RunConfig &Cfg, Setup &S,
              const std::vector<double> &TierBuilds, RunResult &Res,
              Tally &T) {
  const uint32_t Clients = Spec.Warm ? ServiceWorkers : 1;
  const bool Shuffled = !Spec.Warm;
  // Phase lengths: the runtime counters need the service (warm only);
  // the overhead needs an untraced pass of the same client loop.
  double ServiceS = Spec.Warm ? 0.3 * Cfg.Seconds : 0;
  double UntracedS = Spec.Warm ? 0.3 * Cfg.Seconds : 0.35 * Cfg.Seconds;
  double TracedS = Cfg.Seconds - ServiceS - UntracedS;

  PhaseOut Svc;
  if (Spec.Warm) {
    Svc = serviceLoop(S, ServiceS, Cfg.Seed);
    T.merge(Svc.T);
  }
  PhaseOut U = directLoop(S, UntracedS, Cfg.Seed + 1, false, Clients,
                          Shuffled);
  T.merge(U.T);
  PhaseOut Tr = directLoop(S, TracedS, Cfg.Seed + 2, true, Clients, Shuffled);
  T.merge(Tr.T);

  LayerTotals L = collectTotals();
  int64_t SelfSum = 0;
  for (size_t K = 0; K != NumLayers; ++K)
    SelfSum += L.selfNs(Layer(K));
  if (SelfSum != L.AnalysisNs)
    T.fail("layer self times do not add up to the analysis time");

  const double N = double(std::max<uint64_t>(L.calls(Layer::Analysis), 1));
  auto PerS = [&](int64_t Ns) { return double(Ns) * 1e-9 / N; };
  auto Per = [&](uint64_t Count) { return double(Count) / N; };

  addMetric(Res, "trace.analysis_s", PerS(L.AnalysisNs), "s");
  addMetric(Res, "unattributed_s", PerS(L.selfNs(Layer::Analysis)), "s");
  addMetric(Res, "prolog.parse_s", PerS(L.selfNs(Layer::Parse)), "s");
  addMetric(Res, "prolog.normalize_s", PerS(L.selfNs(Layer::Normalize)), "s");
  addMetric(Res, "prolog.metrics_s", PerS(L.selfNs(Layer::Metrics)), "s");
  addMetric(Res, "core.summaries_s", PerS(L.selfNs(Layer::Summaries)), "s");
  addMetric(Res, "runtime.symtab_copy_s", PerS(L.selfNs(Layer::SymtabCopy)),
            "s");
  addMetric(Res, "gaia.self_s", PerS(L.selfNs(Layer::Solve)), "s");

  const Counters &C = Tr.Sum;
  addMetric(Res, "gaia.proc_iterations", Per(C.ProcIters), "count");
  addMetric(Res, "gaia.clause_iterations", Per(C.ClauseIters), "count");
  addMetric(Res, "gaia.input_patterns", Per(C.InputPatterns), "count");
  addMetric(Res, "gaia.entry_lookups", Per(C.EntryLookups), "count");
  addMetric(Res, "gaia.entry_compares", Per(C.EntryCompares), "count");
  addMetric(Res, "gaia.fixpoint_aborts", Per(C.FixpointAborts), "count");

  const std::pair<Layer, const char *> Ops[] = {
      {Layer::Includes, "includes"}, {Layer::Meet, "meet"},
      {Layer::Join, "join"},         {Layer::Widen, "widen"},
      {Layer::Restrict, "restrict"}, {Layer::Construct, "construct"},
  };
  for (const auto &[Op, Name] : Ops) {
    std::string P = std::string("typegraph.") + Name;
    size_t K = size_t(Op);
    addMetric(Res, P + ".calls", Per(L.calls(Op)), "count");
    addMetric(Res, P + ".misses", Per(L.Calls[1][K]), "count");
    addMetric(Res, P + ".hit_s", PerS(L.SelfNs[0][K]), "s");
    addMetric(Res, P + ".miss_s", PerS(L.SelfNs[1][K]), "s");
  }
  addMetric(Res, "typegraph.canon.calls", Per(L.calls(Layer::Canon)),
            "count");
  addMetric(Res, "typegraph.canon_s", PerS(L.selfNs(Layer::Canon)), "s");

  double OpTotal = double(C.OpHits + C.OpSharedHits + C.OpMisses);
  addMetric(Res, "opcache.hit_ratio",
            ratio(double(C.OpHits + C.OpSharedHits), OpTotal), "ratio");
  addMetric(Res, "opcache.shared_hit_ratio",
            ratio(double(C.OpSharedHits), OpTotal), "ratio");
  addMetric(Res, "interner.graphs", Per(C.InternedGraphs), "count");
  addMetric(Res, "pfset.hit_ratio",
            ratio(double(C.PfHits + C.PfSharedHits),
                  double(C.PfHits + C.PfSharedHits + C.PfMisses)),
            "ratio");
  addMetric(Res, "widening.invocations", Per(C.WidenInvocations), "count");
  addMetric(Res, "widening.clash_walks", Per(C.ClashWalks), "count");
  addMetric(Res, "widening.cache_hits", Per(C.WidenCacheHits), "count");

  // Runtime: the service phase for warm-service; for the cold workloads
  // the untraced direct loop, which has no queue and nothing to reject.
  const PhaseOut &RT = Spec.Warm ? Svc : U;
  std::vector<double> RunMs = Spec.Warm ? RT.RunMs : RT.LatMs;
  double Busy = ratio(RT.BusyS, RT.WallS * (Spec.Warm ? ServiceWorkers : 1));
  addMetric(Res, "runtime.queue_wait_p50_ms",
            percentile(RT.QueueWaitMs, 0.50), "ms");
  addMetric(Res, "runtime.queue_wait_p99_ms",
            percentile(RT.QueueWaitMs, 0.99), "ms");
  addMetric(Res, "runtime.run_p50_ms", percentile(RunMs, 0.50), "ms");
  addMetric(Res, "runtime.busy_ratio", Busy, "ratio");
  addMetric(Res, "runtime.tier_build_s", median(TierBuilds), "s");
  addMetric(Res, "runtime.rejected", double(RT.Rejected), "count");
  addMetric(Res, "runtime.degraded", double(RT.Degraded), "count");

  // Same client loop with and without the tracing adapter.
  double TracedRate = ratio(double(Tr.Correct), Tr.BusyS / Clients);
  double UntracedRate = ratio(double(U.Correct), U.BusyS / Clients);
  addMetric(Res, "trace.analyses_per_s", TracedRate, "1/s");
  addMetric(Res, "trace.untraced_analyses_per_s", UntracedRate, "1/s");
  addMetric(Res, "trace.overhead_ratio", ratio(UntracedRate, TracedRate) - 1,
            "ratio");
  addMetric(Res, "trace.analyses", N, "count");
  addMetric(Res, "trace.spans_dropped", double(collectDropped()), "count");

  Res.Samples.push_back({"traced_analyses", uint64_t(N)});
  Res.Samples.push_back({"untraced_analyses", U.LatMs.size()});
  Res.Samples.push_back({"service_requests", Svc.LatMs.size()});

  if (!Cfg.TraceOut.empty()) {
    int64_t Written = writeSpans(Cfg.TraceOut);
    if (Written < 0)
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   Cfg.TraceOut.c_str());
    Res.Samples.push_back(
        {"spans_written", uint64_t(std::max<int64_t>(Written, 0))});
  }
}

} // namespace

bool perfbench::isWorkload(const std::string &Name) {
  return findSpec(Name) != nullptr;
}

RunResult perfbench::runWorkload(const RunConfig &Cfg) {
  RunResult Res;
  const WorkloadSpec *Spec = findSpec(Cfg.Workload);
  Tally T;
  Setup S;
  std::vector<double> SetupTimes, TierBuilds;
  // A settle-pass mismatch is counted and the run goes on, so every
  // metric is still reported; only a set-up that could not complete
  // (missing golden file, failed tier build) skips the timed phase.
  if (repeatedSetUp(*Spec, Cfg.GoldenDir, S, T, &SetupTimes, &TierBuilds)) {
    if (Cfg.Trace)
      perLayer(*Spec, Cfg, S, TierBuilds, Res, T);
    else
      endToEnd(*Spec, Cfg, S, Res, T);
  }
  if (S.Service)
    S.Service->drain(std::chrono::milliseconds(1000));

  if (!Cfg.Trace) {
    addMetric(Res, "setup_s", median(SetupTimes), "s");
    addMetric(Res, "peak_rss_mb", peakRssMb(), "MB");
    addMetric(Res, "success_ratio",
              ratio(double(T.Attempted - T.Failed), double(T.Attempted)),
              "ratio");
  }
  Res.Samples.push_back({"setup", SetupTimes.size()});
  Res.Attempted = T.Attempted;
  Res.Failed = T.Failed;
  Res.Correct = T.Failed == 0 && T.Attempted > 0;
  Res.Errors = T.Errors;
  return Res;
}

bool perfbench::selfTest(const std::string &GoldenDir) {
  bool Ok = true;
  auto Expect = [&](bool Cond, const std::string &What) {
    if (!Cond) {
      std::printf("self-test FAILED: %s\n", What.c_str());
      Ok = false;
    }
  };
  enableThreadTracing(SpanCapPerThread);
  for (uint32_t Cap : {0u, 2u}) {
    GoldenMap Golden;
    std::string Err;
    if (!loadGolden(goldenPath(GoldenDir, Cap), Golden, &Err)) {
      Expect(false, Err);
      continue;
    }
    AnalyzerOptions Opts;
    Opts.OrCap = Cap;
    std::vector<AnalysisJob> Warmup;
    for (const Query &Q : publishedQueries()) {
      std::string FP =
          analysisFingerprint(analyzeProgram(Q.Source, Q.GoalSpec, Opts));
      std::string Traced =
          analysisFingerprint(tracedAnalyze(Q.Source, Q.GoalSpec, Opts));
      std::string Tag = "orcap" + std::to_string(Cap) + " " + Q.id();
      Expect(FP == Golden[Q.id()], Tag + ": analyzeProgram vs golden");
      Expect(Traced == FP, Tag + ": traced vs analyzeProgram");
      Warmup.push_back({Q.Key, Q.Source, Q.GoalSpec});
    }

    // Over a shared tier: the traced composition, analyzeProgram and the
    // service must all give the cold (golden) result for the whole mix.
    std::shared_ptr<const SharedCache> Tier =
        SharedCache::build(Warmup, Opts, &Err);
    Expect(Tier && Tier->compatibleWith(Opts), "tier build: " + Err);
    if (!Tier)
      continue;
    AnalyzerOptions TierOpts = Opts;
    TierOpts.Shared = Tier;
    ServiceOptions SO;
    SO.Workers = ServiceWorkers;
    SO.Opts = Opts;
    SO.Shared = Tier;
    AnalysisService Service(SO);
    std::vector<Query> Mix = serviceQueries();
    std::vector<std::string> Order[2];
    for (uint64_t Seed : {1u, 2u}) {
      Rng R(Seed);
      std::vector<size_t> Idx(Mix.size());
      std::iota(Idx.begin(), Idx.end(), 0);
      R.shuffle(Idx);
      std::vector<ServiceTicketPtr> Tickets;
      for (size_t I : Idx)
        Tickets.push_back(submitQuery(Service, Mix[I]));
      for (size_t K = 0; K != Idx.size(); ++K) {
        const Query &Q = Mix[Idx[K]];
        Order[Seed - 1].push_back(Q.id());
        const ServiceOutcome &O = Tickets[K]->wait();
        std::string Tag = "orcap" + std::to_string(Cap) + " tier seed " +
                          std::to_string(Seed) + " " + Q.id();
        std::string Cold = Golden[Q.id()];
        Expect(O.Ran && analysisFingerprint(O.Outcome.Result) == Cold,
               Tag + ": service vs cold");
        Expect(analysisFingerprint(analyzeProgram(Q.Source, Q.GoalSpec,
                                                  TierOpts)) == Cold,
               Tag + ": analyzeProgram over the tier vs cold");
        Expect(analysisFingerprint(tracedAnalyze(Q.Source, Q.GoalSpec,
                                                 TierOpts)) == Cold,
               Tag + ": traced over the tier vs cold");
      }
    }
    Expect(Order[0] != Order[1], "seeds 1 and 2 give the same order");
    Service.drain(std::chrono::milliseconds(1000));
  }
  return Ok;
}
