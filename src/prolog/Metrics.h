//===- prolog/Metrics.h - Program size and recursion metrics --------------==//
///
/// \file
/// Computes the measurements of the paper's Tables 1 and 2:
///
///   Table 1: number of procedures, clauses, program points, goals
///            (procedure calls), and the static call-tree size of [15]
///            (the static call graph unfolded from the entry predicate
///            with recursive back-calls removed).
///
///   Table 2: the syntactic form of procedures: tail recursive, locally
///            recursive ("more than one recursive call or a nonterminal
///            recursive call"), mutually recursive, or non-recursive.
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_PROLOG_METRICS_H
#define GAIA_PROLOG_METRICS_H

#include "prolog/CallGraph.h"
#include "prolog/Normalize.h"
#include "prolog/Program.h"

namespace gaia {

/// Table 1 row.
struct SizeMetrics {
  uint32_t NumProcedures = 0;
  uint32_t NumClauses = 0;
  uint64_t NumProgramPoints = 0;
  uint32_t NumGoals = 0;
  uint64_t StaticCallTreeSize = 0;
};

/// Table 2 row. A procedure lands in exactly one class.
struct RecursionMetrics {
  uint32_t TailRecursive = 0;
  uint32_t LocallyRecursive = 0;
  uint32_t MutuallyRecursive = 0;
  uint32_t NonRecursive = 0;
};

// CallGraph (the static call graph and its SCCs) lives in
// prolog/CallGraph.h; both tables below are computed from it.

/// Computes the Table 1 metrics. \p Entry is the benchmark's top-level
/// predicate (the root of the static call tree).
SizeMetrics computeSizeMetrics(const Program &Prog, const NProgram &NProg,
                               SymbolTable &Syms, FunctorId Entry);

/// Overload for callers that already built the call graph (the analyzer
/// builds one per analysis and shares it with classifyRecursion);
/// identical results, one construction.
SizeMetrics computeSizeMetrics(const Program &Prog, const NProgram &NProg,
                               SymbolTable &Syms, FunctorId Entry,
                               const CallGraph &CG);

/// Computes the Table 2 classification.
RecursionMetrics classifyRecursion(const Program &Prog, SymbolTable &Syms);

/// Overload for callers that already built the call graph; identical
/// results, one construction.
RecursionMetrics classifyRecursion(const Program &Prog, SymbolTable &Syms,
                                   const CallGraph &CG);

} // namespace gaia

#endif // GAIA_PROLOG_METRICS_H
