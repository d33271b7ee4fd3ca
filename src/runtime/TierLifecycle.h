//===- runtime/TierLifecycle.h - Managed cache-tier lifecycle -------------==//
///
/// \file
/// The control plane over SharedCache's tier operations: a
/// TierLifecycle owns the current frozen tier of a long-running batch
/// service and rotates it between batches —
///
///   promote   hot worker-delta entries (harvested via
///             AnalyzerOptions::CollectDelta) merge into tier N+1
///             instead of dying with their jobs;
///   compact   every CompactEvery batches, the tier is rebuilt keeping
///             only generationally-live entries, renumbered through
///             relocation tables;
///   evict     when the deterministic tier byte estimate exceeds
///             MaxTierBytes, compaction re-runs with progressively
///             stricter liveness until the tier fits (or nothing more
///             can go).
///
/// The controller is single-threaded by design: it runs on the thread
/// that submits the waves, between waves (runBatch in
/// runtime/AnalysisService.h, or at AnalysisService::drain), where no
/// job of the rotated tier is in flight. Every tier it installs is observationally invisible —
/// cached entries are exact, so rotation changes memory and timing,
/// never analysis results (bench/tier_lifecycle.cpp asserts the
/// fingerprints).
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_RUNTIME_TIERLIFECYCLE_H
#define GAIA_RUNTIME_TIERLIFECYCLE_H

#include "runtime/Resilience.h"
#include "runtime/SharedCache.h"

#include <memory>
#include <vector>

namespace gaia {

struct LifecyclePolicy {
  /// Hit threshold a worker-delta entry must clear to be promoted
  /// (mirrors AnalyzerOptions::DeltaMinHits on the jobs).
  uint32_t PromoteMinHits = 2;
  /// Compact every this many batches (0 = never compact on cadence;
  /// the budget below can still force one).
  uint32_t CompactEvery = 0;
  /// Liveness window handed to CompactionPolicy on cadence compactions.
  uint32_t KeepGens = 1;
  /// Byte budget on the tier estimate (SharedCache::tierBytes);
  /// 0 = unbounded. Exceeding it triggers eviction: compaction with the
  /// liveness window shrunk until the tier fits.
  uint64_t MaxTierBytes = 0;
};

struct LifecycleStats {
  uint32_t Batches = 0;
  uint32_t Promotions = 0;       ///< refreezes that absorbed >= 1 delta
  uint64_t PromotedEntries = 0;  ///< entries absorbed across promotions
  uint32_t Compactions = 0;      ///< cadence + eviction rebuilds
  uint32_t Evictions = 0;        ///< budget-forced compactions
  uint64_t DroppedGraphs = 0;    ///< graph ids dropped across compactions
};

/// Not thread-safe; call endBatch between waves only.
class TierLifecycle {
public:
  TierLifecycle(std::shared_ptr<const SharedCache> Initial,
                LifecyclePolicy Policy);

  /// The tier jobs of the next batch should read through.
  const std::shared_ptr<const SharedCache> &current() const { return Tier; }

  /// Rotates the tier after a batch: absorbs the outcomes' harvested
  /// deltas (promotion), advances the touch generation, and compacts on
  /// cadence or over budget. Returns the tier to install for the next
  /// batch (same pointer as current()).
  const std::shared_ptr<const SharedCache> &
  endBatch(const std::vector<JobOutcome> &Outcomes);

  const LifecycleStats &stats() const { return St; }
  const LifecyclePolicy &policy() const { return Policy; }

private:
  void compact(const std::shared_ptr<const SharedCache> &Base,
               uint32_t KeepGens, bool Eviction);

  std::shared_ptr<const SharedCache> Tier;
  LifecyclePolicy Policy;
  LifecycleStats St;
  uint32_t BatchesSinceCompact = 0;
};

} // namespace gaia

#endif // GAIA_RUNTIME_TIERLIFECYCLE_H
