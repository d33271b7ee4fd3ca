//===- perfbench/src/Workloads.h - The benchmark's workloads --------------==//
///
/// \file
/// The three workloads (README.md says why each was chosen):
///
///   cold-orcap0   Table 3: the ten Section 9 programs, cold
///                 analyzeProgram calls at or-cap 0, one closed-loop
///                 client, program order shuffled by the seed each pass.
///   cold-orcap2   the same at or-cap 2 (Table 3's last column).
///   warm-service  the 30-query serving mix through AnalysisService
///                 (2 workers, AdmitPolicy::Block, no deadline) over a
///                 frozen SharedCache tier built in set-up from the ten
///                 published goals; one generator keeps 4 requests
///                 outstanding and draws queries by the seed.
///
/// BENCHMARK.json lists cold-orcap0 and warm-service; cold-orcap2 runs
/// the same way when named on the command line.
///
/// The untraced run reports the end-to-end metrics; the traced run
/// reports the per-layer metrics and the tracing overhead.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string GoldenDir;
  /// Where the traced run writes its spans (empty = not written).
  std::string TraceOut;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// False when an analysis failed its check or the run could not be
  /// set up; the first few reasons are kept in Errors.
  bool Correct = true;
  std::vector<std::string> Errors;
  std::vector<Metric> Metrics;
  /// Sample count behind each timing ("latency": 812, ...).
  std::vector<std::pair<std::string, uint64_t>> Samples;
};

/// True if \p Name is one of the workloads above.
bool isWorkload(const std::string &Name);

/// Runs one workload as configured.
RunResult runWorkload(const RunConfig &Cfg);

/// The traced composition must reproduce analyzeProgram: on the ten
/// programs at or-cap 0 and 2 cold and over a shared tier, and for the
/// whole serving mix through AnalysisService. Also checks that two
/// seeds order the inputs differently but change no output. Prints one
/// line per failure; returns true if all checks pass.
bool selfTest(const std::string &GoldenDir);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
