//===- perfbench/src/TracedAnalyze.h - analyzeProgram with layer spans ----==//
///
/// \file
/// The traced run's analysis: the same composition analyzeProgram runs
/// for the type-graph domain (parse, clause normalization, program
/// metrics, Engine::solve, per-predicate summaries), built from the
/// library's public pieces over TracedLeaf, with a span around each
/// layer. Supports the configurations the benchmark uses: the type-graph
/// domain with the op cache, any or-cap, optionally over a frozen shared
/// tier; no deadline, cancellation token or type database.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACEDANALYZE_H
#define PERFBENCH_TRACEDANALYZE_H

#include "core/Analyzer.h"

#include <string>

namespace perfbench {

/// Analyzes \p Source for \p GoalSpec under \p Opts inside one
/// Layer::Analysis span. \p Opts.Shared, when set, must be compatible
/// with \p Opts (the caller checks SharedCache::compatibleWith).
gaia::AnalysisResult tracedAnalyze(const std::string &Source,
                                   const std::string &GoalSpec,
                                   const gaia::AnalyzerOptions &Opts);

} // namespace perfbench

#endif // PERFBENCH_TRACEDANALYZE_H
