//===- typegraph/Widening.h - The paper's widening operator ---------------==//
///
/// \file
/// The novel widening operator of Section 7, the paper's key technical
/// contribution. Given the old graph g_o and a new graph g_new:
///
///   g_o V g_new = g_o                      if g_new <= g_o
///               = widen(g_o, g_o U g_new)  otherwise
///
/// `widen` repeatedly exploits *topological clashes* between g_o and g_n:
/// positions where the correspondence relation (Definition 7.1) meets
/// or-vertices with different pf-sets or different depths — the places
/// where g_n grew relative to g_o. Each clash is resolved by:
///
///   - the *cycle introduction rule* (Definition 7.4): redirect the edge
///     into the clash vertex v_n to an ancestor v_a with
///     pf(v_n) ⊆ pf(v_a) and v_a >= v_n, or
///   - the *replacement rule* (Definition 7.5): when no such ancestor is
///     large enough, replace the ancestor by an upper bound of v_a and
///     v_n that strictly decreases the size of the graph,
///
/// until no rule applies. Remaining clashes are allowed to grow the graph
/// — that growth introduces fresh pf-sets along a branch, which is what
/// bounds the number of times V can grow a graph (Theorem 7.1).
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_TYPEGRAPH_WIDENING_H
#define GAIA_TYPEGRAPH_WIDENING_H

#include "support/Cancellation.h"
#include "typegraph/GraphOps.h"
#include "typegraph/Normalize.h"
#include "typegraph/TypeGraph.h"

#include <cstdint>

namespace gaia {

/// Widening strategy selector. `Paper` is Section 7's operator.
/// `DepthK` is the finite-subdomain alternative the paper contrasts
/// against (Bruynooghe & Janssens bound functor occurrences on paths;
/// the classic depth-k abstraction is the comparable baseline): the
/// union of the iterates truncated at k or-levels. It terminates
/// trivially but cannot represent structure below depth k.
enum class WidenMode : uint8_t { Paper, DepthK };

/// Knobs for the widening. MaxTransforms is a defensive bound on the
/// transformation loop (the paper proves termination; the cap guards
/// implementation bugs). If the budget is ever exhausted the widening
/// gives up on shrinking and returns the Any graph — a sound,
/// terminating fallback that works in release builds too (it used to be
/// a debug-only assert, which made NDEBUG builds silently return a
/// possibly ever-growing graph). Exhaustions are counted in
/// WideningStats::BudgetExhaustions.
struct WideningOptions {
  NormalizeOptions Norm;
  uint32_t MaxTransforms = 512;
  WidenMode Mode = WidenMode::Paper;
  /// Truncation depth for WidenMode::DepthK.
  uint32_t DepthK = 4;
  /// Optional type database (the extension proposed in the paper's
  /// conclusion): when the replacement rule must replace an ancestor,
  /// a database type covering both clash vertices is preferred over the
  /// ad-hoc collapsing union when it also shrinks the graph. Graphs
  /// must be normalized; not owned.
  const std::vector<TypeGraph> *Database = nullptr;
  /// Optional cooperative stop condition (support/Cancellation.h),
  /// polled once per transform-loop iteration — the widening's analogue
  /// of the engine's per-round checkpoint, since a single adversarial
  /// widening can burn the whole MaxTransforms budget between engine
  /// polls. A tripped signal throws CancelledError; the analyzer facade
  /// owns the handler. Null = never cancelled; not owned.
  const CancelSignal *Cancel = nullptr;
};

/// Statistics for benchmarks/ablations: how often each rule fired.
struct WideningStats {
  uint64_t CycleIntroductions = 0;
  uint64_t Replacements = 0;
  uint64_t DatabaseHits = 0;
  uint64_t Invocations = 0;
  /// Times the transformation budget collapsed the result to Any.
  uint64_t BudgetExhaustions = 0;
  /// Widenings answered by the OpCache memo layer (the rule counters
  /// above only tick on actual recomputations).
  uint64_t CacheHits = 0;
  /// Widening clashes found across all correspondence walks (Def 7.3).
  uint64_t Clashes = 0;
  /// Correspondence walks performed (one per transform-loop iteration).
  uint64_t ClashWalks = 0;
};

/// Computes Gold V Gnew. Both inputs must be normalized; the result is
/// normalized and includes both inputs. \p WS provides the reusable
/// buffers of the widening hot loop (pair tables, topology arrays, the
/// pf-set interner); nullptr falls back to a thread-local instance.
TypeGraph graphWiden(const TypeGraph &Gold, const TypeGraph &Gnew,
                     const SymbolTable &Syms,
                     const WideningOptions &Opts = {},
                     WideningStats *Stats = nullptr,
                     NormalizeScratch *Scratch = nullptr,
                     WideningScratch *WS = nullptr);

namespace detail {

/// graphWiden for callers that have already established — and memoized —
/// that \p Gnew is NOT included in \p Gold (typegraph/OpCache.cpp's
/// widenOf runs the check through its inclusion memo): skips the entry
/// inclusion test so the product walk is not repeated uncached.
TypeGraph graphWidenNotIncluded(const TypeGraph &Gold, const TypeGraph &Gnew,
                                const SymbolTable &Syms,
                                const WideningOptions &Opts,
                                WideningStats *Stats,
                                NormalizeScratch *Scratch,
                                WideningScratch *WS);

/// Splices a copy of \p Rep in place of the subtree rooted at or-vertex
/// \p Va of \p G, redirecting *every* incoming edge of \p Va (not just
/// the BFS-tree parent edge) to the replacement. Mid-widening graphs can
/// carry multiple incoming edges on an or-vertex (back edges created by
/// the cycle introduction rule); redirecting only the tree edge would
/// leave the others pointing at the stale subtree. Exposed for tests.
TypeGraph graftReplace(const TypeGraph &G, NodeId Va, const TypeGraph &Rep,
                       const TypeGraph::Topology &Topo);

} // namespace detail

} // namespace gaia

#endif // GAIA_TYPEGRAPH_WIDENING_H
