//===- bench/throughput.cpp - Concurrent batch-analysis throughput --------==//
///
/// \file
/// Measures the batch runtime (runtime/AnalysisService.h runBatch waves
/// over SharedCache.h): the ten Section 9 programs x repeated query
/// variants, run on services of 1/2/4/8 worker threads layered on one
/// frozen shared cache tier.
/// Reports jobs/sec, scaling efficiency and shared-tier hit rates, and
/// — the part that gates — verifies every job's result is bit-identical
/// to a cold sequential analyzeProgram run: same procedure/clause
/// iteration counts, same query output grammars, same Table 4/5 tag
/// tables. Any divergence exits non-zero.
///
/// Writes machine-readable BENCH_throughput.json (override the path
/// with BENCH_THROUGHPUT_JSON; empty string skips the file). Repeat
/// factor via BENCH_THROUGHPUT_REPEAT (default 4).
///
/// Note on scaling: jobs/sec scales with *physical cores*. The JSON
/// records hardware_concurrency so the regression gate
/// (bench/check_bench_regression.py) can tier the 8-worker scaling
/// floor by the machine's core count (3x with >= 8 hardware threads,
/// 1.5x with 4-7, skipped below).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/Report.h"
#include "programs/Benchmarks.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <vector>

using namespace gaia;

namespace {

struct WorkerRun {
  uint32_t Workers = 0;
  BatchStats St;
  bool Identical = true;
};

long peakRssKb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss; // KiB on Linux
}

} // namespace

int main(int argc, char **argv) {
  (void)argc;
  (void)argv;
  unsigned Repeat = 4;
  if (const char *E = std::getenv("BENCH_THROUGHPUT_REPEAT"))
    Repeat = std::max(1u, static_cast<unsigned>(std::strtoul(E, nullptr, 10)));

  std::vector<AnalysisJob> Queries = serviceQueryMix();
  std::vector<AnalysisJob> Batch;
  for (unsigned R = 0; R != Repeat; ++R)
    Batch.insert(Batch.end(), Queries.begin(), Queries.end());

  // Warmup pass: the batch's distinct programs under their published
  // goals. The variant goals are *not* warmed — a realistic request mix
  // hits the tier partially and fills worker deltas for the rest.
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

  // Sequential oracle: one cold run per distinct query.
  std::map<std::string, std::string> Oracle;
  double OracleSeconds = 0;
  for (const AnalysisJob &Q : Queries) {
    AnalysisResult R = analyzeProgram(Q.Source, Q.GoalSpec);
    if (!R.Ok) {
      std::fprintf(stderr, "error: oracle %s: %s\n", Q.Key.c_str(),
                   R.Error.c_str());
      return 1;
    }
    OracleSeconds += R.Stats.SolveSeconds;
    Oracle[Q.Key + "|" + Q.GoalSpec] = analysisFingerprint(R);
  }

  unsigned Hardware = std::thread::hardware_concurrency();
  std::printf("=== batch-analysis throughput ===\n");
  std::printf("jobs: %zu (%zu distinct queries x %u), hardware threads: %u\n",
              Batch.size(), Queries.size(), Repeat, Hardware);
  std::printf("warmup: %.3fs, %llu graphs, %llu op results, %u symbols\n",
              Cache->stats().WarmupSeconds,
              static_cast<unsigned long long>(Cache->stats().Graphs),
              static_cast<unsigned long long>(Cache->stats().OpResults),
              Cache->stats().Symbols);
  std::printf("sequential cold solve total: %.3fs (oracle pass)\n\n",
              OracleSeconds);
  std::printf("workers  wall(s)   jobs/s  speedup  eff%%  shared%%  "
              "identical\n");

  // The timed waves are the shared queue-free capacity measurement
  // (bench/BenchUtil.h) — service_soak derives its load multiples from
  // the same helper over the same mix, so "4x capacity" there means 4x
  // what these rows report.
  std::map<uint32_t, bool> IdenticalByWorkers;
  auto Verify = [&](uint32_t Workers, const std::vector<JobOutcome> &Out) {
    bool Identical = true;
    for (size_t I = 0; I != Out.size(); ++I) {
      const AnalysisJob &J = Batch[I];
      if (analysisFingerprint(Out[I].Result) !=
          Oracle[J.Key + "|" + J.GoalSpec]) {
        std::fprintf(stderr, "MISMATCH: %s (%s) on %u workers\n",
                     J.Key.c_str(), J.GoalSpec.c_str(), Workers);
        Identical = false;
      }
    }
    IdenticalByWorkers[Workers] = Identical;
  };
  std::vector<CapacityPoint> Points =
      measureQueueFreeCapacity(Batch, Cache, {1, 2, 4, 8}, Verify);

  std::vector<WorkerRun> Runs;
  bool AllIdentical = true;
  uint32_t TotalFailed = 0;
  std::string FirstError;
  double Base = 0;
  for (const CapacityPoint &P : Points) {
    WorkerRun Run;
    Run.Workers = P.Workers;
    Run.St = P.St;
    Run.Identical = IdenticalByWorkers[P.Workers];
    AllIdentical = AllIdentical && Run.Identical;
    TotalFailed += Run.St.Failed;
    if (FirstError.empty() && !Run.St.FirstError.empty())
      FirstError = Run.St.FirstError;
    if (Run.Workers == 1)
      Base = Run.St.JobsPerSecond;
    double Speedup = Base > 0 ? Run.St.JobsPerSecond / Base : 0;
    std::printf("%7u %8.3f %8.1f %8.2f %5.1f %8.1f  %s\n", Run.Workers,
                Run.St.WallSeconds, Run.St.JobsPerSecond, Speedup,
                100.0 * Speedup / Run.Workers,
                100.0 * Run.St.sharedHitRate(),
                Run.Identical ? "yes" : "NO");
    Runs.push_back(Run);
  }
  std::printf("\n");

  const char *JsonPath = std::getenv("BENCH_THROUGHPUT_JSON");
  if (!JsonPath)
    JsonPath = "BENCH_throughput.json";
  if (*JsonPath) {
    std::FILE *F = std::fopen(JsonPath, "w");
    if (!F) {
      std::fprintf(stderr, "error: cannot write %s\n", JsonPath);
      return 1;
    }
    double MaxJps = 0;
    for (const WorkerRun &R : Runs)
      MaxJps = std::max(MaxJps, R.St.JobsPerSecond);
    const WorkerRun &Last = Runs.back();
    std::fprintf(F,
                 "{\n  \"hardware_concurrency\": %u,\n"
                 "  \"jobs\": %zu,\n  \"distinct_queries\": %zu,\n"
                 "  \"repeat\": %u,\n  \"warmup_seconds\": %.6f,\n"
                 "  \"shared_graphs\": %llu,\n  \"shared_op_results\": "
                 "%llu,\n  \"sequential_cold_seconds\": %.6f,\n",
                 Hardware, Batch.size(), Queries.size(), Repeat,
                 Cache->stats().WarmupSeconds,
                 static_cast<unsigned long long>(Cache->stats().Graphs),
                 static_cast<unsigned long long>(Cache->stats().OpResults),
                 OracleSeconds);
    std::fprintf(F, "  \"runs\": [\n");
    for (size_t I = 0; I != Runs.size(); ++I) {
      const WorkerRun &R = Runs[I];
      std::fprintf(
          F,
          "    {\"workers\": %u, \"wall_seconds\": %.6f, "
          "\"jobs_per_sec\": %.2f, \"shared_hit_rate\": %.4f, "
          "\"identical\": %s}%s\n",
          R.Workers, R.St.WallSeconds, R.St.JobsPerSecond,
          R.St.sharedHitRate(), R.Identical ? "true" : "false",
          I + 1 != Runs.size() ? "," : "");
    }
    double Scaling = Base > 0 ? Last.St.JobsPerSecond / Base : 0;
    // Total jobs executed across all measured + untimed waves (2 waves x
    // 4 worker counts), normalized per 10k jobs: the steady-state memory
    // figure the lifecycle budget machinery targets.
    size_t Executed = Batch.size() * 2 * Runs.size();
    double RssPer10k =
        Executed ? double(peakRssKb()) * 10000.0 / double(Executed) : 0;
    std::fprintf(F,
                 "  ],\n  \"jobs_per_sec_1w\": %.2f,\n"
                 "  \"jobs_per_sec_max\": %.2f,\n"
                 "  \"scaling_8w_over_1w\": %.3f,\n"
                 "  \"scaling_efficiency_8w\": %.3f,\n"
                 "  \"tier_bytes\": %llu,\n"
                 "  \"tier_arena_bytes\": %llu,\n"
                 "  \"peak_rss_kb\": %ld,\n"
                 "  \"peak_rss_per_10k_jobs\": %.1f,\n"
                 "  \"failed_jobs\": %u,\n"
                 "  \"first_error\": \"%s\",\n"
                 "  \"identical_all\": %s\n}\n",
                 Base, MaxJps, Scaling, Scaling / 8.0,
                 static_cast<unsigned long long>(Cache->tierBytes()),
                 static_cast<unsigned long long>(Cache->stats().ArenaBytes),
                 peakRssKb(), RssPer10k, TotalFailed,
                 jsonEscape(FirstError).c_str(),
                 AllIdentical ? "true" : "false");
    std::fclose(F);
    std::printf("wrote %s (max %.1f jobs/s, 8w/1w scaling %.2fx)\n",
                JsonPath, MaxJps, Scaling);
  }

  if (!AllIdentical) {
    std::fprintf(stderr,
                 "FAIL: concurrent results diverged from the sequential "
                 "oracle\n");
    return 1;
  }
  return 0;
}
