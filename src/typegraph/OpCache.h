//===- typegraph/OpCache.h - Memoized graph operations over canonical ids -==//
///
/// \file
/// Memoization layer over the Section 6.9 operations (union,
/// intersection, inclusion), the Section 7 widening, and the two
/// leaf-domain unification primitives (principal-functor restriction and
/// construction — by call count the hottest graph operations of the
/// analysis). Operands are hash-consed through a GraphInterner, so cache
/// keys are canonical-id tuples and semantic equality (`equals`) is an
/// O(1) id comparison.
///
/// The cache is exact: graph operations are pure functions of the
/// operand *languages* (all inputs are normalized, and normalization is
/// canonical), so a hit returns a graph language-equal to what
/// recomputation would produce — the property tests in
/// tests/InternerPropertyTest.cpp assert exactly this.
///
/// One OpCache per analysis, threaded through TypeLeaf::Context; the
/// normalization options (or-cap) and widening options are fixed for the
/// cache's lifetime, matching how the analyzer configures a run.
///
/// For the batch runtime (src/runtime/) the cache is *two-tier*:
/// `freeze()` snapshots a populated OpCache (result maps plus the
/// interner) into an immutable FrozenOpTier, and a fresh OpCache
/// constructed over that tier consults it lock-free before its private
/// delta maps. The tier is never written after freezing (a hit only
/// reads it), so any number of concurrent per-worker caches can share
/// one; results frozen from a warmup run are exact for every later run
/// with the same normalization and widening options (the runtime's
/// SharedCache gates on that).
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_TYPEGRAPH_OPCACHE_H
#define GAIA_TYPEGRAPH_OPCACHE_H

#include "support/GraphInterner.h"
#include "typegraph/Normalize.h"
#include "typegraph/Widening.h"

#include <unordered_map>

namespace gaia {

/// Hit/miss counters, surfaced in EngineStats by the analyzer and in the
/// Table 3 bench output.
struct OpCacheStats {
  uint64_t Hits = 0;       ///< resolved in the private delta maps
  uint64_t Misses = 0;     ///< computed and recorded in the delta
  uint64_t SharedHits = 0; ///< resolved in the frozen shared tier
  double hitRate() const {
    uint64_t Total = Hits + SharedHits + Misses;
    return Total ? double(Hits + SharedHits) / double(Total) : 0.0;
  }
  double sharedHitRate() const {
    uint64_t Total = Hits + SharedHits + Misses;
    return Total ? double(SharedHits) / double(Total) : 0.0;
  }
};

/// Memoized outcome of a principal-functor restriction.
struct RestrictMemo {
  bool Ok = false;
  SmallVector<CanonId, 4> Args;
};

/// An immutable snapshot of a populated OpCache: the read-only shared
/// tier of the batch runtime. Keys and values are canonical ids of the
/// embedded FrozenInternTier; lookups are const and lock-free, safe for
/// unsynchronized concurrent readers. Construct via OpCache::freeze().
/// The recorded results are valid only for runs whose normalization and
/// widening configuration matches the one the source cache ran with.
///
/// Freeze discipline (gaia-lint `freeze-fields` / `freeze-methods`):
/// every field is const and no mutating member function exists; in audit
/// builds (GAIA_AUDIT) the result maps live in a FrozenArena sealed to
/// PROT_READ once freeze() completes.
struct FrozenOpTier {
  using PairU8Map =
      FrozenMap<std::pair<CanonId, CanonId>, uint8_t, PairHash>;
  using PairIdMap =
      FrozenMap<std::pair<CanonId, CanonId>, CanonId, PairHash>;
  using RestrictMap =
      FrozenMap<std::pair<CanonId, uint32_t>, RestrictMemo, PairHash>;
  using ConstructMap =
      FrozenMap<std::vector<uint32_t>, CanonId, IdVectorHash>;

  /// Mutable staging area for freeze(); in audit builds the maps already
  /// draw from the tier's arena.
  struct Builder {
    Builder()
        : Arena(makeTierArena()),
          Incl(makeFrozenContainer<PairU8Map>(Arena)),
          Union(makeFrozenContainer<PairIdMap>(Arena)),
          Inter(makeFrozenContainer<PairIdMap>(Arena)),
          Widen(makeFrozenContainer<PairIdMap>(Arena)),
          Restrict(makeFrozenContainer<RestrictMap>(Arena)),
          Construct(makeFrozenContainer<ConstructMap>(Arena)) {}
    std::shared_ptr<FrozenArena> Arena;
    std::shared_ptr<const FrozenInternTier> Intern;
    std::shared_ptr<const FrozenPfTier> Pf;
    NormalizeOptions Norm;
    PairU8Map Incl;
    PairIdMap Union;
    PairIdMap Inter;
    PairIdMap Widen;
    RestrictMap Restrict;
    ConstructMap Construct;
  };

  explicit FrozenOpTier(Builder &&B)
      : Arena(std::move(B.Arena)), Intern(std::move(B.Intern)),
        Pf(std::move(B.Pf)), Norm(B.Norm), Incl(std::move(B.Incl)),
        Union(std::move(B.Union)), Inter(std::move(B.Inter)),
        Widen(std::move(B.Widen)), Restrict(std::move(B.Restrict)),
        Construct(std::move(B.Construct)) {}

  /// Container teardown writes into the storage it releases, so the last
  /// reference lifts the audit seal before the members destruct.
  ~FrozenOpTier() {
    if (Arena)
      Arena->unseal();
  }

  /// Audit-build storage arena (null otherwise); declared first so it
  /// outlives the maps it backs.
  const std::shared_ptr<FrozenArena> Arena;
  const std::shared_ptr<const FrozenInternTier> Intern;
  /// Frozen pf-set tier (support/PfSetInterner.h). Every pf-set of every
  /// canonical graph in Intern is recorded here, and every canonical
  /// graph's topology cache is primed against it at freeze() time under
  /// this tier's epoch — so concurrent widenings over tier graphs are
  /// pure reads.
  const std::shared_ptr<const FrozenPfTier> Pf;
  const NormalizeOptions Norm;
  const PairU8Map Incl;
  const PairIdMap Union;
  const PairIdMap Inter;
  const PairIdMap Widen;
  const RestrictMap Restrict;
  const ConstructMap Construct;

  uint64_t resultCount() const {
    return Incl.size() + Union.size() + Inter.size() + Widen.size() +
           Restrict.size() + Construct.size();
  }

  /// Seals the arena (audit builds): every later write to tier storage
  /// faults. No-op without GAIA_AUDIT.
  void sealStorage() const {
    if (Arena)
      Arena->seal();
  }
};

/// Memo cache for the memoized graph operations. Not thread-safe; may
/// be layered over a FrozenOpTier, which is only ever read.
class OpCache {
public:
  OpCache(const SymbolTable &Syms, const NormalizeOptions &Norm,
          std::shared_ptr<const FrozenOpTier> SharedTier = nullptr)
      : Shared(std::move(SharedTier)),
        Interned(Syms, Shared ? Shared->Intern : nullptr),
        WScratch(Shared ? Shared->Pf : nullptr), Syms(Syms), Norm(Norm) {}

  /// True if Cc(Small) is a subset of Cc(Big).
  bool includes(const TypeGraph &Big, const TypeGraph &Small);
  /// Cached graphUnion (commutative: keys are unordered id pairs).
  TypeGraph unionOf(const TypeGraph &A, const TypeGraph &B);
  /// Cached graphIntersect (commutative).
  TypeGraph intersectOf(const TypeGraph &A, const TypeGraph &B);
  /// Cached graphWiden. \p Opts must be stable across the cache's
  /// lifetime (the analyzer fixes it per run); \p WStats is bumped with
  /// a CacheHits tick instead of the full rule counters on a hit.
  TypeGraph widenOf(const TypeGraph &Old, const TypeGraph &New,
                    const WideningOptions &Opts, WideningStats *WStats);
  /// Cached graphRestrict: restricts \p V to principal functor \p Fn,
  /// filling \p ArgsOut with one normalized graph per argument.
  bool restrictOf(const TypeGraph &V, FunctorId Fn,
                  std::vector<TypeGraph> &ArgsOut);
  /// Cached graphConstruct: the normalized graph denoting f(a1,...,an).
  TypeGraph constructOf(FunctorId Fn, const std::vector<TypeGraph> &Args);

  /// Semantic equality as a canonical-id comparison.
  bool equals(const TypeGraph &A, const TypeGraph &B) {
    return Interned.intern(A) == Interned.intern(B);
  }

  /// Canonical id of \p G — the per-slot key the engine's memo-table
  /// lookup hashes over.
  CanonId canonId(const TypeGraph &G) { return Interned.intern(G); }

  GraphInterner &interner() { return Interned; }
  const GraphInterner &interner() const { return Interned; }
  /// The analysis' pf-set interner (lives in the widening scratch,
  /// layered over the shared tier's frozen pf sets when one is given).
  PfSetInterner &pfSets() { return WScratch.PfSets; }
  const PfSetStats &pfStats() const { return WScratch.PfSets.stats(); }
  WideningScratch &wideningScratch() { return WScratch; }
  const FrozenOpTier *sharedTier() const { return Shared.get(); }
  const OpCacheStats &stats() const { return St; }

  /// Snapshots this cache (ids preserved) into an immutable tier safe
  /// for unsynchronized concurrent lookups. Only a cache built without a
  /// shared tier may be frozen: tiers do not stack.
  std::shared_ptr<const FrozenOpTier> freeze() const;

private:
  /// True if \p Id's canonical graph carries a normalization certificate
  /// for this cache's options — the precondition of the equality and
  /// inclusion fast paths (re-normalizing a certified graph reproduces
  /// it bit-for-bit; an uncertified one may have been truncated).
  bool certified(CanonId Id) const {
    return Interned.graph(Id).isNormalizedFor(Norm.OrCap, Norm.MaxNodes,
                                              Norm.MaxDepth);
  }

  /// Read-only shared tier (may be null). Declared before the interner:
  /// the interner is constructed over the tier's intern layer.
  std::shared_ptr<const FrozenOpTier> Shared;
  GraphInterner Interned;
  /// Widening/pairwise-op scratch (owns the pf-set interner, layered
  /// over the shared tier's frozen pf sets). Mutable so the const
  /// freeze() can run the pf pre-pass through it.
  mutable WideningScratch WScratch;
  const SymbolTable &Syms;
  NormalizeOptions Norm;
  /// Scratch buffers handed to every underlying graph operation, so the
  /// whole analysis shares one set of normalization work arrays.
  NormalizeScratch Scratch;
  std::unordered_map<std::pair<CanonId, CanonId>, uint8_t, PairHash> Incl;
  std::unordered_map<std::pair<CanonId, CanonId>, CanonId, PairHash> Union;
  std::unordered_map<std::pair<CanonId, CanonId>, CanonId, PairHash> Inter;
  std::unordered_map<std::pair<CanonId, CanonId>, CanonId, PairHash> Widen;
  /// (value id, functor) -> restriction outcome.
  std::unordered_map<std::pair<CanonId, uint32_t>, RestrictMemo, PairHash>
      Restrict;
  /// [functor, arg ids...] -> constructed graph id.
  std::unordered_map<std::vector<uint32_t>, CanonId, IdVectorHash> Construct;
  OpCacheStats St;
};

} // namespace gaia

#endif // GAIA_TYPEGRAPH_OPCACHE_H
