//===- bench/BenchUtil.h - Shared helpers for the table harnesses ---------==//
///
/// \file
/// Helpers shared by the benchmark binaries: run a benchmark program
/// under a domain/configuration, print paper-vs-measured rows, and — for
/// the serving-layer harnesses (throughput, service_soak) — the shared
/// request mix, the queue-free capacity baseline, and JSON escaping.
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_BENCH_BENCHUTIL_H
#define GAIA_BENCH_BENCHUTIL_H

#include "core/Analyzer.h"
#include "core/Report.h"
#include "programs/Benchmarks.h"
#include "programs/PaperData.h"
#include "runtime/AnalysisService.h"

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace gaia {

/// Analyzes \p B with the given options; prints an error and aborts on
/// failure (the bench harness runs on known-good inputs).
inline AnalysisResult runBenchmark(const BenchmarkProgram &B,
                                   AnalyzerOptions Opts = {}) {
  AnalysisResult R = analyzeProgram(B.Source, B.GoalSpec, Opts);
  if (!R.Ok) {
    std::fprintf(stderr, "error: %s: %s\n", B.Key.c_str(),
                 R.Error.c_str());
    std::abort();
  }
  return R;
}

inline void printHeaderBlock(const char *Table, const char *What) {
  std::printf("\n=== %s: %s ===\n", Table, What);
  std::printf("(paper values from a Sun SPARC-10 and the original "
              "benchmark sources; ours are reconstructions — compare "
              "shapes, not absolutes; see DESIGN.md)\n\n");
}

/// The distinct (program, goal) queries of the serving workload: each
/// Section 9 program's published goal plus variants specializing the
/// first argument — the repeated-query shape a type-analysis service
/// sees. Shared by bench/throughput.cpp and bench/service_soak.cpp so
/// the queue-free capacity baseline and the soak run the same mix.
inline std::vector<AnalysisJob> serviceQueryMix() {
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

/// Minimal JSON string escaping for error-message fields (parser
/// messages can carry quotes and backslashes from source excerpts).
inline std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

/// One queue-free capacity measurement: \p Workers service threads
/// driving \p St.JobsPerSecond over a pre-warmed tier with the whole
/// batch admitted at once, so no submission ever waits for queue space
/// — the raw compute ceiling the service's load multiples are derived
/// from.
struct CapacityPoint {
  uint32_t Workers = 0;
  BatchStats St;
};

/// Measures queue-free batch capacity at each worker count: one untimed
/// settle wave (OS thread placement) then one timed wave per count, each
/// a runBatch wave on a service sized to hold the whole batch.
/// \p Verify, when set, receives every timed wave's outcomes for
/// oracle/fingerprint checking.
inline std::vector<CapacityPoint> measureQueueFreeCapacity(
    const std::vector<AnalysisJob> &Batch,
    const std::shared_ptr<const SharedCache> &Cache,
    const std::vector<uint32_t> &WorkerCounts,
    const std::function<void(uint32_t, const std::vector<JobOutcome> &)>
        &Verify = {}) {
  std::vector<CapacityPoint> Points;
  for (uint32_t Workers : WorkerCounts) {
    ServiceOptions SO;
    SO.Workers = Workers;
    SO.QueueCapacity = static_cast<uint32_t>(Batch.size());
    SO.Shared = Cache;
    AnalysisService Svc(SO);
    runBatch(Svc, Batch);
    CapacityPoint P;
    P.Workers = Workers;
    std::vector<JobOutcome> Out = runBatch(Svc, Batch, &P.St);
    if (Verify)
      Verify(Workers, Out);
    Points.push_back(std::move(P));
  }
  return Points;
}

} // namespace gaia

#endif // GAIA_BENCH_BENCHUTIL_H
