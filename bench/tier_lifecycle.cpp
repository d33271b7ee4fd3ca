//===- bench/tier_lifecycle.cpp - Cache-tier lifecycle soak ----------------==//
///
/// \file
/// Soaks the managed tier lifecycle (runtime/TierLifecycle.h): repeated
/// batches of the Section 9 programs x query variants, each one runBatch
/// wave on a 4-worker AnalysisService over the lifecycle's current tier,
/// with a fresh per-generation "churn" program each wave so the
/// tier keeps acquiring entries that go stale one generation later.
/// Between batches the lifecycle promotes hot worker deltas and
/// compacts on cadence — exactly the serving shape the budget machinery
/// targets.
///
/// Reports per-generation jobs/sec, shared-tier hit rate, and the tier
/// byte estimate; the part that gates: every job of every generation is
/// verified bit-identical to a cold sequential run (promotion and
/// compaction must be observationally invisible), and the post-
/// compaction byte curve must plateau instead of growing with the
/// churn (bench/check_bench_regression.py --lifecycle).
///
/// Writes BENCH_tier_lifecycle.json (override with
/// BENCH_TIER_LIFECYCLE_JSON; empty string skips). Generations via
/// GAIA_LIFECYCLE_GENS (default 6, min 3).
///
//===----------------------------------------------------------------------===//

#include "runtime/TierLifecycle.h"

#include "core/Report.h"
#include "programs/Benchmarks.h"
#include "runtime/AnalysisService.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <sys/resource.h>
#include <vector>

using namespace gaia;

namespace {

long peakRssKb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss; // KiB on Linux
}

/// Section 9 programs x {published, list, int} first-argument variants —
/// the stable core of every generation's batch.
std::vector<AnalysisJob> baseQueries() {
  std::vector<AnalysisJob> Queries;
  for (const BenchmarkProgram &B : table123Suite()) {
    Queries.push_back({B.Key, B.Source, B.GoalSpec});
    for (const char *Spec : {"list", "int"}) {
      std::string Goal = B.GoalSpec;
      size_t Pos = Goal.find("any");
      if (Pos == std::string::npos)
        continue;
      Goal.replace(Pos, 3, Spec);
      Queries.push_back({B.Key + "#" + Spec, B.Source, Goal});
    }
  }
  return Queries;
}

/// A program unique to generation \p Gen: fresh functor names, so its
/// graphs and op entries share nothing with other generations. Without
/// churn the tier would trivially plateau; with it, only compaction
/// keeps the byte curve flat.
AnalysisJob churnJob(unsigned Gen) {
  std::string G = std::to_string(Gen);
  AnalysisJob J;
  J.Key = "churn#g" + G;
  J.GoalSpec = "p(any)";
  J.Source = "p([]).\n"
             "p([soak_g" + G + "(X)|T]) :- q(X), p(T).\n"
             "q(soak_g" + G + "(a_" + G + ")).\n"
             "q(b_" + G + ").\n";
  return J;
}

struct GenRun {
  unsigned Gen = 0;
  BatchStats St;
  uint64_t TierBytes = 0;
  uint64_t ArenaBytes = 0;
  uint64_t Graphs = 0;
  uint64_t OpResults = 0;
  uint64_t PromotedEntries = 0; ///< cumulative across generations
  bool Compacted = false;       ///< a compaction ran after this batch
  bool Identical = true;
};

} // namespace

int main(int argc, char **argv) {
  (void)argc;
  (void)argv;
  unsigned Gens = 6;
  if (const char *E = std::getenv("GAIA_LIFECYCLE_GENS"))
    Gens = std::max(3u, static_cast<unsigned>(std::strtoul(E, nullptr, 10)));

  std::vector<AnalysisJob> Base = baseQueries();

  // Cold oracle: one sequential run per distinct job (base + every
  // generation's churn program).
  std::map<std::string, std::string> Oracle;
  auto AddOracle = [&](const AnalysisJob &J) {
    AnalysisResult R = analyzeProgram(J.Source, J.GoalSpec);
    if (!R.Ok) {
      std::fprintf(stderr, "error: oracle %s: %s\n", J.Key.c_str(),
                   R.Error.c_str());
      return false;
    }
    Oracle[J.Key + "|" + J.GoalSpec] = analysisFingerprint(R);
    return true;
  };
  for (const AnalysisJob &J : Base)
    if (!AddOracle(J))
      return 1;
  for (unsigned G = 0; G != Gens; ++G)
    if (!AddOracle(churnJob(G)))
      return 1;

  // Initial tier: warm the published goals only; the variants and the
  // churn arrive through the promotion path.
  std::vector<AnalysisJob> Warmup;
  for (const BenchmarkProgram &B : table123Suite())
    Warmup.push_back({B.Key, B.Source, B.GoalSpec});
  std::string Err;
  std::shared_ptr<const SharedCache> Tier0 =
      SharedCache::build(Warmup, AnalyzerOptions{}, &Err);
  if (!Tier0) {
    std::fprintf(stderr, "error: shared cache build failed: %s\n",
                 Err.c_str());
    return 1;
  }

  LifecyclePolicy LP;
  LP.PromoteMinHits = 2;
  LP.CompactEvery = 2;
  LP.KeepGens = 1;
  TierLifecycle L(Tier0, LP);

  std::printf("=== cache-tier lifecycle soak ===\n");
  std::printf("generations: %u, jobs/generation: %zu, workers: 4\n",
              Gens, Base.size() + 1);
  std::printf("tier 0: %llu graphs, %llu op results, %llu bytes (est)\n\n",
              static_cast<unsigned long long>(Tier0->stats().Graphs),
              static_cast<unsigned long long>(Tier0->stats().OpResults),
              static_cast<unsigned long long>(Tier0->tierBytes()));
  std::printf("gen  jobs/s  shared%%  tier-KB  graphs  promoted  compacted"
              "  identical\n");

  std::vector<GenRun> Runs;
  bool AllIdentical = true;
  long CompactionStartGen = -1;
  for (unsigned G = 0; G != Gens; ++G) {
    std::vector<AnalysisJob> Batch = Base;
    Batch.push_back(churnJob(G));

    GenRun Run;
    Run.Gen = G;
    std::vector<JobOutcome> Out;
    {
      ServiceOptions SO;
      SO.Workers = 4;
      SO.QueueCapacity = static_cast<uint32_t>(Batch.size());
      SO.Shared = L.current();
      SO.CollectDeltas = true;
      SO.DeltaMinHits = LP.PromoteMinHits;
      AnalysisService Svc(SO);
      Out = runBatch(Svc, Batch, &Run.St);
    }
    for (size_t I = 0; I != Out.size(); ++I) {
      const AnalysisJob &J = Batch[I];
      if (analysisFingerprint(Out[I].Result) !=
          Oracle[J.Key + "|" + J.GoalSpec]) {
        std::fprintf(stderr, "MISMATCH: %s (%s) at generation %u\n",
                     J.Key.c_str(), J.GoalSpec.c_str(), G);
        Run.Identical = false;
      }
    }
    AllIdentical = AllIdentical && Run.Identical;

    uint32_t CompactionsBefore = L.stats().Compactions;
    const std::shared_ptr<const SharedCache> &Cur = L.endBatch(Out);
    Run.Compacted = L.stats().Compactions != CompactionsBefore;
    if (Run.Compacted && CompactionStartGen < 0)
      CompactionStartGen = static_cast<long>(G);
    Run.TierBytes = Cur->tierBytes();
    Run.ArenaBytes = Cur->stats().ArenaBytes;
    Run.Graphs = Cur->stats().Graphs;
    Run.OpResults = Cur->stats().OpResults;
    Run.PromotedEntries = L.stats().PromotedEntries;

    std::printf("%3u %7.1f %8.1f %8llu %7llu %9llu %10s %10s\n", G,
                Run.St.JobsPerSecond, 100.0 * Run.St.sharedHitRate(),
                static_cast<unsigned long long>(Run.TierBytes / 1024),
                static_cast<unsigned long long>(Run.Graphs),
                static_cast<unsigned long long>(Run.PromotedEntries),
                Run.Compacted ? "yes" : "no",
                Run.Identical ? "yes" : "NO");
    Runs.push_back(Run);
  }

  double FirstHitRate = Runs.front().St.sharedHitRate();
  double LastHitRate = Runs.back().St.sharedHitRate();
  std::printf("\nshared-hit rate: %.1f%% (gen 0) -> %.1f%% (gen %u); "
              "promotions: %u, compactions: %u, dropped graphs: %llu\n",
              100.0 * FirstHitRate, 100.0 * LastHitRate, Gens - 1,
              L.stats().Promotions, L.stats().Compactions,
              static_cast<unsigned long long>(L.stats().DroppedGraphs));

  const char *JsonPath = std::getenv("BENCH_TIER_LIFECYCLE_JSON");
  if (!JsonPath)
    JsonPath = "BENCH_tier_lifecycle.json";
  if (*JsonPath) {
    std::FILE *F = std::fopen(JsonPath, "w");
    if (!F) {
      std::fprintf(stderr, "error: cannot write %s\n", JsonPath);
      return 1;
    }
    std::fprintf(F,
                 "{\n  \"generations\": %u,\n"
                 "  \"jobs_per_generation\": %zu,\n"
                 "  \"workers\": 4,\n"
                 "  \"promote_min_hits\": %u,\n"
                 "  \"compact_every\": %u,\n  \"keep_gens\": %u,\n"
                 "  \"compaction_start_generation\": %ld,\n"
                 "  \"promotions\": %u,\n  \"compactions\": %u,\n"
                 "  \"promoted_entries\": %llu,\n"
                 "  \"dropped_graphs\": %llu,\n"
                 "  \"shared_hit_rate_first\": %.4f,\n"
                 "  \"shared_hit_rate_last\": %.4f,\n"
                 "  \"peak_rss_kb\": %ld,\n",
                 Gens, Base.size() + 1, LP.PromoteMinHits, LP.CompactEvery,
                 LP.KeepGens, CompactionStartGen, L.stats().Promotions,
                 L.stats().Compactions,
                 static_cast<unsigned long long>(L.stats().PromotedEntries),
                 static_cast<unsigned long long>(L.stats().DroppedGraphs),
                 FirstHitRate, LastHitRate, peakRssKb());
    std::fprintf(F, "  \"runs\": [\n");
    for (size_t I = 0; I != Runs.size(); ++I) {
      const GenRun &R = Runs[I];
      std::fprintf(F,
                   "    {\"generation\": %u, \"jobs_per_sec\": %.2f, "
                   "\"shared_hit_rate\": %.4f, \"tier_bytes\": %llu, "
                   "\"tier_arena_bytes\": %llu, \"graphs\": %llu, "
                   "\"op_results\": %llu, \"promoted_entries\": %llu, "
                   "\"compacted\": %s, \"identical\": %s}%s\n",
                   R.Gen, R.St.JobsPerSecond, R.St.sharedHitRate(),
                   static_cast<unsigned long long>(R.TierBytes),
                   static_cast<unsigned long long>(R.ArenaBytes),
                   static_cast<unsigned long long>(R.Graphs),
                   static_cast<unsigned long long>(R.OpResults),
                   static_cast<unsigned long long>(R.PromotedEntries),
                   R.Compacted ? "true" : "false",
                   R.Identical ? "true" : "false",
                   I + 1 != Runs.size() ? "," : "");
    }
    std::fprintf(F, "  ],\n  \"identical_all\": %s\n}\n",
                 AllIdentical ? "true" : "false");
    std::fclose(F);
    std::printf("wrote %s\n", JsonPath);
  }

  if (!AllIdentical) {
    std::fprintf(stderr, "FAIL: lifecycle results diverged from the cold "
                         "sequential oracle\n");
    return 1;
  }
  return 0;
}
