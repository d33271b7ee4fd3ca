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
/// workers never synchronize on anything. Cached results are exact
/// (pure functions of operand languages), which is why per-job results
/// are bit-identical to a cold sequential run — the property
/// bench/throughput.cpp and tests/ServiceBatchTest.cpp assert.
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
#include "support/Relocation.h"
#include "typegraph/CacheDelta.h"
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

/// Generational-compaction policy (see compactAndRefreeze).
struct CompactionPolicy {
  /// An entry survives when its last touch is within this many
  /// generations of the tier's current one (0 = current generation
  /// only). Generations advance via TierLifecycle between batches.
  uint32_t KeepGens = 1;
};

/// Immutable after construction; share one instance across any number of
/// concurrent workers via shared_ptr (AnalyzerOptions::Shared).
///
/// Tier lifecycle (DESIGN.md "Tier lifecycle"): build() freezes a warmup
/// into tier N; promoteAndRefreeze stacks hot worker-delta entries into
/// tier N+1 (ids preserved); compactAndRefreeze rebuilds a tier keeping
/// only generationally-live entries, renumbering the dense id spaces
/// through explicit RelocationTables. All three produce observationally
/// identical analysis results — every cached entry is an exact pure
/// function of operand languages, so presence or absence of an entry
/// changes only timing, never output.
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
    /// (graphs, buckets, op maps, pf pool) — the figure the lifecycle
    /// budget and the bench plateau gate act on. An estimate because
    /// node storage is heap-side shared_ptr blocks; exact arena bytes
    /// are reported separately under GAIA_AUDIT.
    uint64_t TierBytes = 0;
    /// Exact bytes in the mprotect-sealed tier arenas (GAIA_AUDIT
    /// builds; 0 otherwise).
    uint64_t ArenaBytes = 0;
    /// Entries newly recorded from absorbed deltas (promotion) or kept
    /// through a rebuild (compaction).
    uint64_t AbsorbedEntries = 0;
    /// Graph ids dropped by compaction (0 for build/promotion).
    uint64_t DroppedGraphs = 0;
  };

  /// Runs \p Warmup sequentially under \p Opts against one accumulating
  /// cache and freezes it. Returns null (with \p Err set) if a warmup
  /// job fails to parse or analyze, or if \p Opts cannot use the op
  /// cache (PF domain / UseOpCache off). \p Opts.Shared, if set, is the
  /// tier to layer the warmup itself over — freezing a batch on top of a
  /// previous batch's cache.
  static std::shared_ptr<const SharedCache>
  build(const std::vector<AnalysisJob> &Warmup, const AnalyzerOptions &Opts,
        std::string *Err = nullptr);

  /// Builds tier N+1 from this tier plus the surviving hot entries of
  /// \p Deltas (harvested from jobs that ran over this tier — see
  /// AnalyzerOptions::CollectDelta). Stacking: every id of this tier is
  /// preserved, absorbed entries append past them, and the touch history
  /// carries over so compaction liveness spans refreezes. Null deltas in
  /// the vector are skipped. The promoted tier serves bit-identical
  /// results: absorbed entries are exact.
  std::shared_ptr<const SharedCache> promoteAndRefreeze(
      const std::vector<std::shared_ptr<const CacheDelta>> &Deltas) const;

  /// Rebuilds the tier keeping only entries whose operand/result graph
  /// ids were all touched within \p Policy.KeepGens generations of the
  /// current one. Survivors are renumbered densely; \p GraphReloc (when
  /// non-null) receives the old-id -> new-id table, with dropped ids
  /// mapping to RelocationTable::Dropped. Pf-sets are re-derived from
  /// the surviving graphs (their ids are rebuilt, not relocated), and
  /// the symbol table is kept whole — functor ids are stable for the
  /// cache's lifetime, which is what makes promotion cheap. The
  /// compacted tier is observationally invisible: dropped entries are
  /// recomputed on demand and recomputation is exact.
  std::shared_ptr<const SharedCache>
  compactAndRefreeze(const CompactionPolicy &Policy,
                     RelocationTable<CanonId> *GraphReloc = nullptr) const;

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

  /// Shared tail of build / promote / compact: primes the leaf constants
  /// against the freshly frozen tier, warms the functor-rank memo, and
  /// fills the size and byte figures of St.
  void primeAndFillStats();

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
