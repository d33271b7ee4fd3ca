//===- core/Report.h - Table formatting for the evaluation ----------------==//
///
/// \file
/// Helpers that turn analysis results into the rows of the paper's
/// Tables 1-5: fixed-width formatting plus the tag tallies (type counts
/// with principal-functor counts in parentheses, improvement columns
/// A/AI/AR and C/CI/CR).
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_CORE_REPORT_H
#define GAIA_CORE_REPORT_H

#include "core/Analyzer.h"

#include <array>
#include <string>

namespace gaia {

/// Tag tallies for one benchmark (one row of Table 4 or 5).
struct TagTally {
  /// Indexed by ArgTag; counts from the type-graph analysis.
  std::array<uint32_t, 7> Type = {};
  /// Counts from the principal-functor analysis.
  std::array<uint32_t, 7> PF = {};
  uint32_t A = 0;  ///< total arguments
  uint32_t AI = 0; ///< arguments improved by the type analysis
  uint32_t C = 0;  ///< total clauses
  uint32_t CI = 0; ///< clauses with at least one improved argument
  double ar() const { return A ? double(AI) / A : 0.0; }
  double cr() const { return C ? double(CI) / C : 0.0; }
};

/// Compares the two analyses of the same program (predicates matched by
/// name/arity). \p UseOutput selects Table 4 (output tags) vs Table 5
/// (input tags).
TagTally computeTagTally(const AnalysisResult &TypeRes,
                         const AnalysisResult &PFRes, bool UseOutput);

/// "NI CO LI ST DI HY | A AI AR | C CI CR" row, paper style: type count
/// with the nonzero PF count in parentheses.
std::string formatTagRow(const std::string &Name, const TagTally &T);
std::string tagTableHeader();

/// Table 1 row.
std::string formatSizeRow(const std::string &Name, const SizeMetrics &M);
std::string sizeTableHeader();

/// Table 2 row.
std::string formatRecursionRow(const std::string &Name,
                               const RecursionMetrics &M);
std::string recursionTableHeader();

/// Table 3 row: CPU time, iterations, plus capped times.
std::string formatPerfRow(const std::string &Name, double Seconds,
                          uint64_t ProcIters, uint64_t ClauseIters,
                          double SecondsCap5, double SecondsCap2);
std::string perfTableHeader();

/// Renders the query result (one grammar per argument).
std::string formatQueryResult(const AnalysisResult &R,
                              const std::string &GoalSpec);

/// The batch runtime's bit-identity contract, rendered to one string:
/// engine iteration counts, convergence, query output grammars, and the
/// full per-predicate summary with Table 4/5 tags. Two runs of the same
/// (program, goal, options) must produce equal fingerprints whether
/// they ran cold, over a frozen shared cache tier, or on any worker
/// count (bench/throughput.cpp gates on this; tests/ServiceBatchTest.cpp
/// pins it). Deliberately excludes timings and cache hit counters,
/// which legitimately differ run to run.
std::string analysisFingerprint(const AnalysisResult &R);

} // namespace gaia

#endif // GAIA_CORE_REPORT_H
