//===- bench/table3_performance.cpp - Reproduce Table 3 -------------------==//
///
/// \file
/// Table 3: computation results — analysis CPU time, procedure
/// iterations, clause iterations, and the or-degree-capped variants
/// (cap 5 and cap 2, Section 9's generalization that replaces an
/// or-vertex with too many successors by an any-vertex). Printed next to
/// the paper's SPARC-10 numbers; absolute times differ, the shape (which
/// programs are cheap, which pathological, and that caps help the
/// pathological one) is the reproduction target. google-benchmark
/// timings cover the quick programs.
///
/// Besides the human-readable table, the harness writes a
/// machine-readable BENCH_table3.json (per-program solve seconds,
/// iterations, op-cache hit rates, interner outcomes) so CI can
/// accumulate a bench trajectory. Override the output path with the
/// BENCH_TABLE3_JSON environment variable; set it to the empty string
/// to skip the file.
///
/// Every solve time is the minimum over TimingRepetitions runs of its
/// configuration, and the totals are sums of those minima: a single run
/// of the table spread 27% between back-to-back invocations of one
/// binary, against a 30% regression gate, and the minimum is the
/// statistic least disturbed by other load on a shared host. Counters
/// come from the first run; every repetition must reproduce them (the
/// analysis is deterministic), or the harness fails.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif
#ifdef __GLIBC__
#include <malloc.h>
#endif

using namespace gaia;

namespace {

struct Table3Row {
  std::string Key;
  AnalysisResult Base;
  AnalysisResult Cap5;
  AnalysisResult Cap2;
  long PeakRssKb = 0; ///< peak RSS over the uncapped run (see below)
};

/// Peak-RSS sampling for the paper's Table 3 memory column. On Linux the
/// kernel keeps a per-process resident-set high-water mark (VmHWM) that
/// can be *reset* by writing "5" to /proc/self/clear_refs: reset, run
/// the analysis, read. The reset clamps the watermark to the *current*
/// RSS, so the measurement is floored by whatever earlier programs left
/// resident; glibc's malloc_trim returns freed arena memory to the
/// kernel first to keep that floor close to the program's own footprint
/// (a small residue remains — the per-program numbers are upper bounds,
/// tightest for the largest programs). When the reset is unavailable
/// (non-Linux, locked-down procfs) the getrusage fallback still reports
/// a number, but it is the monotone process-wide maximum — the JSON
/// flags which of the two the run produced.
bool resetPeakRss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
#ifdef __linux__
  if (std::FILE *F = std::fopen("/proc/self/clear_refs", "w")) {
    bool Ok = std::fputs("5", F) >= 0;
    return std::fclose(F) == 0 && Ok;
  }
#endif
  return false;
}

long peakRssKb() {
#ifdef __linux__
  if (std::FILE *F = std::fopen("/proc/self/status", "r")) {
    char Line[256];
    long Kb = -1;
    while (std::fgets(Line, sizeof(Line), F))
      if (std::strncmp(Line, "VmHWM:", 6) == 0) {
        Kb = std::strtol(Line + 6, nullptr, 10);
        break;
      }
    std::fclose(F);
    if (Kb >= 0)
      return Kb;
  }
#endif
#if defined(__unix__) || defined(__APPLE__)
  rusage RU;
  if (getrusage(RUSAGE_SELF, &RU) == 0) {
#ifdef __APPLE__
    return RU.ru_maxrss / 1024; // bytes on macOS
#else
    return RU.ru_maxrss; // KiB elsewhere
#endif
  }
#endif
  return 0;
}

double cacheHitRate(const AnalysisResult &R) {
  uint64_t Total = R.Stats.OpCacheHits + R.Stats.OpCacheMisses;
  return Total ? double(R.Stats.OpCacheHits) / double(Total) : 0.0;
}


constexpr unsigned TimingRepetitions = 5;

/// Re-runs \p B under \p Opts until TimingRepetitions runs are done and
/// lowers \p R's solve time to the fastest. Returns false if a run's
/// work counters differ from \p R's.
bool keepFastestSolve(const BenchmarkProgram &B, const AnalyzerOptions &Opts,
                      AnalysisResult &R) {
  for (unsigned I = 1; I < TimingRepetitions; ++I) {
    AnalysisResult Again = runBenchmark(B, Opts);
    if (Again.Stats.ProcedureIterations != R.Stats.ProcedureIterations ||
        Again.Stats.ClauseIterations != R.Stats.ClauseIterations ||
        Again.Stats.OpCacheMisses != R.Stats.OpCacheMisses) {
      std::fprintf(stderr,
                   "error: %s: repetition %u changed the work counters\n",
                   B.Key.c_str(), I);
      return false;
    }
    R.Stats.SolveSeconds =
        std::min(R.Stats.SolveSeconds, Again.Stats.SolveSeconds);
  }
  return true;
}

std::vector<Table3Row> runTable3(bool &PerProgramRss, bool &Deterministic) {
  std::vector<Table3Row> Rows;
  PerProgramRss = true;
  Deterministic = true;
  for (const BenchmarkProgram &B : table123Suite()) {
    Table3Row Row;
    Row.Key = B.Key;
    AnalyzerOptions Base;
    // Peak RSS brackets the first uncapped run — the configuration the
    // paper's memory column measures.
    PerProgramRss = resetPeakRss() && PerProgramRss;
    Row.Base = runBenchmark(B, Base);
    Row.PeakRssKb = peakRssKb();
    AnalyzerOptions Cap5 = Base;
    Cap5.OrCap = 5;
    Row.Cap5 = runBenchmark(B, Cap5);
    AnalyzerOptions Cap2 = Base;
    Cap2.OrCap = 2;
    Row.Cap2 = runBenchmark(B, Cap2);
    Deterministic = keepFastestSolve(B, Base, Row.Base) &&
                    keepFastestSolve(B, Cap5, Row.Cap5) &&
                    keepFastestSolve(B, Cap2, Row.Cap2) && Deterministic;
    Rows.push_back(std::move(Row));
  }
  return Rows;
}

void printTable3(const std::vector<Table3Row> &Rows) {
  printHeaderBlock("Table 3", "computation results (type-graph domain)");
  std::printf("%-4s | %s\n", "", perfTableHeader().c_str());
  for (const Table3Row &Row : Rows) {
    std::printf("ours | %s\n",
                formatPerfRow(Row.Key, Row.Base.Stats.SolveSeconds,
                              Row.Base.Stats.ProcedureIterations,
                              Row.Base.Stats.ClauseIterations,
                              Row.Cap5.Stats.SolveSeconds,
                              Row.Cap2.Stats.SolveSeconds)
                    .c_str());
    if (const PaperTable3Row *P = paperTable3(Row.Key))
      std::printf("papr | %s\n",
                  formatPerfRow(Row.Key, P->Cpu, P->ProcIters,
                                P->ClauseIters, P->Cpu5, P->Cpu2)
                      .c_str());
    std::fflush(stdout);
  }
  std::printf("\n");

  std::printf("--- hash-consing / op-cache layer (uncapped runs) ---\n");
  std::printf("Program   opHit%%      hits    misses   graphs  "
              "lookups   rss(KiB)  iStruct   iAuto   iMiss    keys\n");
  for (const Table3Row &Row : Rows) {
    const EngineStats &S = Row.Base.Stats;
    std::printf("%-8s %6.1f %9llu %9llu %8llu %8llu %10ld %8llu "
                "%7llu %7llu %7llu\n",
                Row.Key.c_str(), 100.0 * cacheHitRate(Row.Base),
                static_cast<unsigned long long>(S.OpCacheHits),
                static_cast<unsigned long long>(S.OpCacheMisses),
                static_cast<unsigned long long>(S.InternedGraphs),
                static_cast<unsigned long long>(S.EntryLookups),
                Row.PeakRssKb,
                static_cast<unsigned long long>(S.InternStructHits),
                static_cast<unsigned long long>(S.InternAutoHits),
                static_cast<unsigned long long>(S.InternMisses),
                static_cast<unsigned long long>(S.InternKeysBuilt));
  }
  std::printf("\n");
}

/// Writes the machine-readable snapshot CI tracks over time. Returns
/// false (and the harness exits non-zero) when the file cannot be
/// written, so CI fails at the bench step instead of two steps later at
/// the artifact upload.
bool writeJson(const std::vector<Table3Row> &Rows, bool PerProgramRss,
               const char *Path) {
  std::FILE *F = std::fopen(Path, "w");
  if (!F) {
    std::fprintf(stderr, "error: cannot write %s\n", Path);
    return false;
  }
  double Total = 0, Total5 = 0, Total2 = 0;
  for (const Table3Row &Row : Rows) {
    Total += Row.Base.Stats.SolveSeconds;
    Total5 += Row.Cap5.Stats.SolveSeconds;
    Total2 += Row.Cap2.Stats.SolveSeconds;
  }
  std::fprintf(F, "{\n  \"programs\": [\n");
  for (size_t I = 0; I != Rows.size(); ++I) {
    const Table3Row &Row = Rows[I];
    const EngineStats &S = Row.Base.Stats;
    const WideningStats &W = Row.Base.WStats;
    std::fprintf(
        F,
        "    {\"key\": \"%s\", \"solve_seconds\": %.6f, "
        "\"proc_iterations\": %llu, \"clause_iterations\": %llu, "
        "\"solve_seconds_cap5\": %.6f, \"solve_seconds_cap2\": %.6f, "
        "\"op_cache_hits\": %llu, \"op_cache_misses\": %llu, "
        "\"op_cache_hit_rate\": %.4f, \"interned_graphs\": %llu, "
        "\"intern_struct_hits\": %llu, \"intern_auto_hits\": %llu, "
        "\"intern_misses\": %llu, \"intern_keys_built\": %llu, "
        "\"entry_lookups\": %llu, \"entry_compares\": %llu, "
        "\"peak_rss_kb\": %ld, "
        "\"widen_invocations\": %llu, \"widen_cache_hits\": %llu, "
        "\"widen_clash_walks\": %llu, \"widen_clashes\": %llu, "
        "\"widen_cycle_introductions\": %llu, \"widen_replacements\": %llu, "
        "\"widen_budget_exhaustions\": %llu, \"pf_set_hit_rate\": %.4f, "
        "\"converged\": %s}%s\n",
        Row.Key.c_str(), S.SolveSeconds,
        static_cast<unsigned long long>(S.ProcedureIterations),
        static_cast<unsigned long long>(S.ClauseIterations),
        Row.Cap5.Stats.SolveSeconds, Row.Cap2.Stats.SolveSeconds,
        static_cast<unsigned long long>(S.OpCacheHits),
        static_cast<unsigned long long>(S.OpCacheMisses),
        cacheHitRate(Row.Base),
        static_cast<unsigned long long>(S.InternedGraphs),
        static_cast<unsigned long long>(S.InternStructHits),
        static_cast<unsigned long long>(S.InternAutoHits),
        static_cast<unsigned long long>(S.InternMisses),
        static_cast<unsigned long long>(S.InternKeysBuilt),
        static_cast<unsigned long long>(S.EntryLookups),
        static_cast<unsigned long long>(S.EntryCompares),
        Row.PeakRssKb,
        static_cast<unsigned long long>(W.Invocations),
        static_cast<unsigned long long>(W.CacheHits),
        static_cast<unsigned long long>(W.ClashWalks),
        static_cast<unsigned long long>(W.Clashes),
        static_cast<unsigned long long>(W.CycleIntroductions),
        static_cast<unsigned long long>(W.Replacements),
        static_cast<unsigned long long>(W.BudgetExhaustions),
        S.pfSetHitRate(), Row.Base.Converged ? "true" : "false",
        I + 1 != Rows.size() ? "," : "");
  }
  std::fprintf(F,
               "  ],\n  \"total_solve_seconds\": %.6f,\n"
               "  \"total_solve_seconds_cap5\": %.6f,\n"
               "  \"total_solve_seconds_cap2\": %.6f,\n"
               "  \"timing_repetitions\": %u,\n"
               "  \"peak_rss_per_program\": %s\n}\n",
               Total, Total5, Total2, TimingRepetitions,
               PerProgramRss ? "true" : "false");
  std::fclose(F);
  std::printf("wrote %s (total %.3fs, cap5 %.3fs, cap2 %.3fs)\n\n", Path,
              Total, Total5, Total2);
  return true;
}

void BM_Analyze(benchmark::State &State, const std::string &Key) {
  const BenchmarkProgram *B = findBenchmark(Key);
  for (auto _ : State) {
    AnalysisResult R = analyzeProgram(B->Source, B->GoalSpec);
    benchmark::DoNotOptimize(R.QuerySucceeds);
  }
}

} // namespace

int main(int argc, char **argv) {
  bool PerProgramRss = false, Deterministic = false;
  std::vector<Table3Row> Rows = runTable3(PerProgramRss, Deterministic);
  if (!Deterministic)
    return 1;
  printTable3(Rows);
  if (!PerProgramRss)
    std::printf("note: peak-RSS watermark reset unavailable; rss column "
                "is the monotone process-wide maximum\n\n");
  const char *JsonPath = std::getenv("BENCH_TABLE3_JSON");
  if (!JsonPath)
    JsonPath = "BENCH_table3.json";
  if (*JsonPath && !writeJson(Rows, PerProgramRss, JsonPath))
    return 1;
  // Register timing loops only for the fast programs; the slow ones are
  // covered by the table above.
  for (const char *Key : {"QU", "PG", "PL", "BR", "CS", "PE", "KA"})
    benchmark::RegisterBenchmark((std::string("BM_Analyze/") + Key).c_str(),
                                 BM_Analyze, std::string(Key));
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
