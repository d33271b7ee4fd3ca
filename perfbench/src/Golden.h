//===- perfbench/src/Golden.h - Query set and golden fingerprints ---------==//
///
/// \file
/// The benchmark's inputs — the ten Section 9 programs with their
/// published goals, and the 30-query serving mix (each goal plus its
/// list/int variants) — and the golden analysisFingerprint of every
/// query at each or-cap, recorded once from a cold analyzeProgram run
/// and stored under perfbench/golden/. Every analysis the benchmark
/// runs is checked against them.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_GOLDEN_H
#define PERFBENCH_GOLDEN_H

#include "core/Analyzer.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

struct Query {
  std::string Key;      ///< "QU", "QU#list", ...
  std::string Source;   ///< Prolog source text
  std::string GoalSpec; ///< e.g. "queens(list,any)"
  /// The golden-file key.
  std::string id() const { return Key + "|" + GoalSpec; }
};

/// The ten Table 3 programs with their published goals, in the paper's
/// column order.
std::vector<Query> publishedQueries();

/// The serving mix: each published goal plus the variants that
/// specialize its first "any" argument to list and to int.
std::vector<Query> serviceQueries();

/// Query id -> analysisFingerprint.
using GoldenMap = std::unordered_map<std::string, std::string>;

/// Path of the golden file for \p OrCap under \p Dir.
std::string goldenPath(const std::string &Dir, uint32_t OrCap);

/// Reads a golden file. Returns false with \p Err set if it is missing
/// or malformed.
bool loadGolden(const std::string &Path, GoldenMap &Out, std::string *Err);

/// Records the golden file for \p OrCap from cold analyzeProgram runs
/// of serviceQueries(). Returns false with \p Err set on failure.
bool recordGolden(const std::string &Dir, uint32_t OrCap, std::string *Err);

/// Checks one result: it must be Ok, not degraded, converged, and its
/// fingerprint must equal the golden one. On failure returns false and
/// sets \p Why.
bool checkResult(const GoldenMap &Golden, const Query &Q,
                 const gaia::AnalysisResult &R, std::string *Why);

} // namespace perfbench

#endif // PERFBENCH_GOLDEN_H
