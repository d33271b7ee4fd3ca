//===- core/Analyzer.h - Top-level type analysis facade -------------------==//
///
/// \file
/// The public entry point of the library: GAIA(Pat(Type)) as described
/// in Section 3, plus the principal-functor baseline GAIA(Pat(PF)) used
/// by the accuracy evaluation. Given a Prolog source and a goal
/// specification, analyzeProgram returns the query's output pattern,
/// per-predicate input/output summaries (with extracted tags), engine
/// statistics and the Table 1/2 program metrics.
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_CORE_ANALYZER_H
#define GAIA_CORE_ANALYZER_H

#include "core/InputPattern.h"
#include "core/Tags.h"
#include "gaia/Engine.h"
#include "prolog/Metrics.h"
#include "support/Cancellation.h"
#include "typegraph/Widening.h"

#include <memory>
#include <string>

namespace gaia {

class OpCache;      // typegraph/OpCache.h
class SharedCache;  // runtime/SharedCache.h
struct CacheDelta;  // typegraph/CacheDelta.h

/// Which abstract domain to run.
enum class DomainKind : uint8_t {
  TypeGraphs,        ///< the paper's system Pat(Type)
  PrincipalFunctors, ///< the baseline Pat(PF) of Tables 4/5
};

/// Structured failure taxonomy for AnalysisResult (and, through it, the
/// serving runtime's JobOutcome). Every Ok=false result carries exactly
/// one of these so callers can route failures — retry ladders treat a
/// Deadline very differently from a ParseError.
enum class FailKind : uint8_t {
  None,       ///< Ok result; no failure
  ParseError, ///< the program failed Parser::hadError() (see FailLine)
  BadQuery,   ///< malformed goal spec / type database / undefined goal
  Deadline,   ///< AnalyzerOptions::DeadlineMs expired mid-analysis
  Cancelled,  ///< AnalyzerOptions::Cancel token tripped mid-analysis
  Exception,  ///< a C++ exception escaped the analysis (containment path)
  Rejected,   ///< the serving layer refused or shed the job before it ran
              ///< (admission policy, overload shedding, or drain) — the
              ///< analysis itself was never attempted
};

/// Printable name for logs and JSON snapshots.
const char *failKindName(FailKind K);

struct AnalyzerOptions {
  DomainKind Domain = DomainKind::TypeGraphs;
  /// Or-degree cap (0 = unbounded; 5 and 2 reproduce Table 3's capped
  /// configurations).
  uint32_t OrCap = 0;
  /// Forwarded to EngineOptions::RefineArithComparisons.
  bool RefineArithComparisons = false;
  /// Forwarded to EngineOptions::MaxInputPatterns (0 = unbounded, the
  /// paper's measured configuration).
  uint32_t MaxInputPatterns = 8;
  /// Forwarded to EngineOptions::MaxFixpointRounds (defensive budget on
  /// the fixpoint loops; exhausting it degrades the offending entry to
  /// top and clears AnalysisResult::Converged instead of hanging or
  /// silently returning a dirty result).
  uint32_t MaxFixpointRounds = 10000;
  /// Use the hash-consing graph interner and operation cache (on by
  /// default; off reproduces the uncached pre-cache behavior for A/B
  /// measurements).
  bool UseOpCache = true;
  /// Widening strategy: the paper's operator, or the depth-k truncation
  /// baseline it is measured against (bench/widening_ablation).
  WidenMode Widening = WidenMode::Paper;
  /// Truncation depth for WidenMode::DepthK.
  uint32_t DepthK = 4;
  /// Optional type database for the widening (the paper's conclusion
  /// extension): tree grammars in the notation of GrammarParser, e.g.
  /// "T ::= [] | cons(Any,T).". Parsed once per analysis.
  std::vector<std::string> TypeDatabase;
  /// Optional frozen shared cache tier (runtime/SharedCache.h). When set
  /// and compatible with this configuration, the run seeds its symbol
  /// table from the tier's snapshot and lays its op cache over the
  /// tier's frozen maps — amortizing graph work across requests. An
  /// incompatible or null tier is simply ignored; results are identical
  /// either way (the tier is exact), only timings change.
  std::shared_ptr<const SharedCache> Shared;
  /// Harvest the hot part of the job's private delta cache into
  /// AnalysisResult::Delta after the run (runtime/TierLifecycle.h feeds
  /// those into SharedCache::promoteAndRefreeze). Requires the type-graph
  /// domain with UseOpCache; ignored otherwise. Collection never changes
  /// the analysis result — only what survives the job.
  bool CollectDelta = false;
  /// Minimum per-entry hit count for the harvest (entries resolved fewer
  /// times are left to die with the worker cache).
  uint32_t DeltaMinHits = 2;
  /// Wall-clock budget for one analysis in milliseconds (0 = none). The
  /// clock starts when analyzeProgram enters; the deadline is polled at
  /// the engine's per-round checkpoints and in the widening transform
  /// loop, so an expired job unwinds to a structured result
  /// (Ok = false, Fail = FailKind::Deadline) instead of holding its
  /// worker until MaxFixpointRounds runs dry.
  uint32_t DeadlineMs = 0;
  /// Optional cancellation token shared with the caller: cancel() from
  /// any thread makes the job unwind at its next poll with
  /// Fail = FailKind::Cancelled. One token may cover a whole wave of
  /// jobs.
  std::shared_ptr<const CancelToken> Cancel;
};

/// One analyzed argument position.
struct ArgInfo {
  TypeGraph Graph; ///< bottom when the argument was never reached
  ArgTag Tag = ArgTag::None;
};

/// Per-predicate summary: the lub over all memo-table tuples ("a
/// procedure is associated with a single version", Section 9).
struct PredicateSummary {
  std::string Name;
  uint32_t Arity = 0;
  uint32_t NumClauses = 0;
  uint32_t NumTuples = 0; ///< polyvariant versions; 0 = unreached
  std::vector<ArgInfo> Input;
  std::vector<ArgInfo> Output;
};

struct AnalysisResult {
  bool Ok = false;
  std::string Error;
  /// Failure classification; FailKind::None iff Ok (or the legacy
  /// pre-taxonomy error paths of warm-up helpers).
  FailKind Fail = FailKind::None;
  /// Source line for FailKind::ParseError (0 = unknown).
  uint32_t FailLine = 0;
  /// True when this result was produced by the resilience ladder's
  /// widen-to-top floor rather than the analysis proper: sound (every
  /// output is Any) but maximally imprecise. Ok is true — the caller
  /// got a usable answer — but fingerprint-level consumers must not
  /// treat it as the analysis' normal output.
  bool Degraded = false;
  /// False if a fixpoint loop exhausted its round budget and the engine
  /// degraded the offending entries to top (see
  /// EngineStats::FixpointAborts). The result is still a sound
  /// over-approximation, but it is not the analysis' normal fixpoint;
  /// callers that need full precision must treat this as a failure.
  bool Converged = true;

  /// Symbol table the graphs refer to (kept alive for printing and for
  /// parsing expected grammars in tests).
  std::shared_ptr<SymbolTable> Syms;

  /// Whether the query can succeed at all and its output types.
  bool QuerySucceeds = false;
  std::vector<TypeGraph> QueryOutput;

  std::vector<PredicateSummary> Summaries;
  std::vector<std::string> UnknownPredicates;

  EngineStats Stats;
  WideningStats WStats;
  SizeMetrics Sizes;
  RecursionMetrics Recursion;

  /// Hot delta-cache entries harvested after the run (null unless
  /// AnalyzerOptions::CollectDelta was set and something cleared the
  /// hit threshold). Self-contained: carries graphs by value plus its
  /// own symbol-table snapshot, so it outlives the job's caches.
  std::shared_ptr<const CacheDelta> Delta;
};

/// Runs the analysis of \p Source for the goal \p GoalSpec (e.g.
/// "nreverse(any,any)").
AnalysisResult analyzeProgram(const std::string &Source,
                              const std::string &GoalSpec,
                              const AnalyzerOptions &Opts = {});

/// Warmup entry point for the batch runtime (runtime/SharedCache.h):
/// like analyzeProgram, but runs against an externally owned symbol
/// table and operation cache so consecutive calls accumulate one cache
/// population that SharedCache::build can freeze. \p Ops must have been
/// constructed over \p Syms with the NormalizeOptions this configuration
/// implies (OrCap from \p Opts). Requires DomainKind::TypeGraphs;
/// Opts.UseOpCache and Opts.Shared are ignored (the external cache is
/// always used). The returned result's Syms pointer aliases \p Syms and
/// does not own it.
AnalysisResult analyzeProgramWarm(SymbolTable &Syms, OpCache &Ops,
                                  const std::string &Source,
                                  const std::string &GoalSpec,
                                  const AnalyzerOptions &Opts = {});

} // namespace gaia

#endif // GAIA_CORE_ANALYZER_H
