//===- runtime/SharedCache.h - Frozen cross-request cache tier ------------==//
///
/// \file
/// The shared, read-only cache tier of the concurrent batch-analysis
/// runtime. A SharedCache is built by running a *warmup pass* (typically
/// the batch's distinct programs, or a previous batch) against one
/// accumulating symbol table and operation cache, then freezing the
/// result:
///
///   - a SymbolTable snapshot every job copies, so functor ids of
///     already-known symbols agree with the ids baked into the frozen
///     graphs (new symbols append past the snapshot in the job's private
///     copy);
///   - a FrozenInternTier (support/GraphInterner.h): every graph
///     language the warmup saw, with precomputed signatures, safe for
///     unsynchronized concurrent lookups;
///   - a FrozenOpTier (typegraph/OpCache.h): every graph-operation
///     result the warmup computed, keyed on frozen canonical ids;
///   - pre-primed TypeLeaf constants whose intern caches carry the
///     frozen tier's epoch, so every job's constant uses are O(1) from
///     the first touch.
///
/// Jobs lay a private mutable delta (their own GraphInterner/OpCache)
/// over the tier; misses fall through and are recorded privately, so
/// workers never synchronize on anything and never write to the tier.
/// Cached results are exact (pure functions of operand languages),
/// which is why per-job results are bit-identical to a cold sequential
/// run — the property bench/throughput.cpp and
/// tests/ServiceBatchTest.cpp assert.
///
/// A tier is built once, from a cold cache, and then only read. Tiers do
/// not stack: to cover more programs, build a new tier from a warmup
/// list that names them all.
///
/// The frozen results are only valid for runs with the same
/// normalization and widening configuration as the warmup;
/// `compatibleWith` gates that, and the analyzer silently bypasses an
/// incompatible tier (correctness never depends on the cache).
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_RUNTIME_SHAREDCACHE_H
#define GAIA_RUNTIME_SHAREDCACHE_H

#include "core/Analyzer.h"
#include "domains/TypeLeaf.h"
#include "typegraph/OpCache.h"

#include <memory>
#include <string>
#include <vector>

namespace gaia {

/// One batch-analysis request: a program, a goal, a display key.
struct AnalysisJob {
  std::string Key;      ///< label for reporting ("QU", "PR#2", ...)
  std::string Source;   ///< Prolog source text
  std::string GoalSpec; ///< input pattern, e.g. "nreverse(any,any)"
};

/// Immutable after construction; share one instance across any number of
/// concurrent workers via shared_ptr (AnalyzerOptions::Shared).
class SharedCache {
public:
  struct BuildStats {
    uint32_t WarmupJobs = 0;
    double WarmupSeconds = 0;  ///< total warmup analysis + freeze time
    uint64_t Graphs = 0;       ///< distinct languages in the frozen tier
    uint64_t OpResults = 0;    ///< frozen operation results
    uint64_t PfSets = 0;       ///< distinct pf-sets in the frozen tier
    uint32_t Symbols = 0;      ///< symbol-table snapshot size
    bool AllConverged = true;  ///< every warmup analysis converged
    /// Deterministic byte estimate of the frozen tier's resident data
    /// (graphs, buckets, op maps, pf pool), reported by the throughput
    /// bench. An estimate because node storage is heap-side shared_ptr
    /// blocks; exact arena bytes are reported separately under
    /// GAIA_AUDIT.
    uint64_t TierBytes = 0;
    /// Exact bytes in the mprotect-sealed tier arenas (GAIA_AUDIT
    /// builds; 0 otherwise).
    uint64_t ArenaBytes = 0;
  };

  /// Runs \p Warmup sequentially under \p Opts against one accumulating
  /// cold cache and freezes it. Returns null (with \p Err set) if a
  /// warmup job fails to parse or analyze, or if \p Opts cannot use the
  /// op cache (PF domain / UseOpCache off). \p Opts.Shared is ignored:
  /// the warmup never reads a previous tier.
  static std::shared_ptr<const SharedCache>
  build(const std::vector<AnalysisJob> &Warmup, const AnalyzerOptions &Opts,
        std::string *Err = nullptr);

  /// The deterministic tier byte estimate (stats().TierBytes).
  uint64_t tierBytes() const { return St.TierBytes; }

  /// True if a run configured with \p Opts may consult this tier: the
  /// cached results are functions of the operand languages *and* of the
  /// normalization / widening configuration, so everything that shapes
  /// them must match the warmup configuration.
  bool compatibleWith(const AnalyzerOptions &Opts) const;

  /// The frozen symbol-table snapshot jobs seed their private copy from.
  const SymbolTable &symbols() const { return Syms; }

  /// The frozen operation tier (owns the frozen intern tier).
  const std::shared_ptr<const FrozenOpTier> &ops() const { return Ops; }

  /// Canonical leaf constants whose intern caches carry the frozen
  /// tier's epoch. Jobs copy them (Constants are mutable, and workers
  /// must not share mutable state).
  const TypeLeaf::Constants &leafConstants() const { return Consts; }

  const BuildStats &stats() const { return St; }

  SharedCache(const SharedCache &) = delete;
  SharedCache &operator=(const SharedCache &) = delete;

private:
  SharedCache() = default;

  SymbolTable Syms;
  std::shared_ptr<const FrozenOpTier> Ops;
  TypeLeaf::Constants Consts;
  /// The warmup configuration compatibleWith compares against (Shared
  /// cleared; engine-only knobs are ignored by the comparison).
  AnalyzerOptions BuiltOpts;
  BuildStats St;
};

} // namespace gaia

#endif // GAIA_RUNTIME_SHAREDCACHE_H
