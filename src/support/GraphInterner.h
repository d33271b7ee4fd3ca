//===- support/GraphInterner.h - Hash-consing of normalized type graphs ---==//
///
/// \file
/// Canonical ids for normalized type graphs. The GAIA fixpoint performs
/// thousands of graph operations whose operands repeat constantly (the
/// same list/tree grammars flow through every clause pass); giving every
/// *language* one dense canonical id makes
///
///   - semantic equality an integer comparison,
///   - the operation caches of typegraph/OpCache.h possible (keys are
///     canonical-id pairs), and
///   - memo-table lookup in the engine hashable (per-slot canonical ids).
///
/// Two-level lookup keeps interning cheap:
///
///   1. a *structural* map over the BFS-canonical shape of the graph.
///      `normalizeGraph` unfolds the minimized deterministic automaton in
///      a deterministic order, so language-equal normalized graphs are
///      structurally identical and almost every intern is a cheap O(n)
///      structural hit;
///   2. a fallback keyed on the serialized minimal automaton
///      (`buildAutomaton`), which is canonical for *any* graph. A
///      structurally novel graph whose language was seen before is
///      recorded as an alias of the existing id, so the canonical-id
///      invariant — equal language iff equal id — holds even for
///      hand-built (non-canonical but normalized) graphs.
///
/// The fallback is needed only once an *uncertified* graph has been
/// interned (here or in the shared tier underneath): a MaxNodes/MaxDepth
/// truncation, the DepthK ablation, or a hand-built graph. Until then
/// every stored graph carries a normalization certificate, which under
/// any options makes it the canonical unfold of its language's minimal
/// automaton, so a certified graph that misses the structural map has a
/// language no entry has — a new id, with no automaton built. The first
/// uncertified intern backfills the keys of every private entry and
/// switches the interner to the keyed path for good; freeze() completes
/// the keys of every entry, so a tier's automaton map is always whole
/// and records whether uncertified graphs live in it.
///
/// For the batch runtime the interner is *two-tier*: `freeze()` snapshots
/// a populated interner into an immutable FrozenInternTier whose lookups
/// are safe for unsynchronized concurrent reads (every stored graph has
/// its structural signature precomputed, so no lazy mutation happens at
/// read time). A fresh interner constructed over a frozen tier resolves
/// known languages to the tier's ids and allocates new (private) ids
/// from `tier size` upward, so ids never alias across tiers: the shared
/// tier owns the dense prefix [0, size), every delta id is >= size, and
/// the epoch tags cached inside graph values are drawn from one global
/// counter so a value can never smuggle an id between unrelated tiers.
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_SUPPORT_GRAPHINTERNER_H
#define GAIA_SUPPORT_GRAPHINTERNER_H

#include "support/FrozenArena.h"
#include "support/Hashing.h"
#include "support/Relocation.h"
#include "typegraph/Normalize.h"
#include "typegraph/TypeGraph.h"

#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

namespace gaia {

/// Dense id of an interned graph language. Ids are only comparable within
/// one GraphInterner.
using CanonId = uint32_t;
constexpr CanonId InvalidCanon = ~0u;

/// Hash of the BFS-canonical shape of the reachable part of \p G: two
/// graphs that are structurally isomorphic under BFS renumbering (the
/// numbering `compact` produces) hash equal. On outputs of normalizeGraph
/// this is a *canonical* language hash. Memoized in the graph itself
/// (TypeGraph::structSig); mutation invalidates, copies inherit.
uint64_t structuralHash(const TypeGraph &G);

/// True if \p A and \p B have identical BFS-canonical shapes (same
/// renumbered vertex sequence, kinds, functors and successor lists).
bool structuralEqual(const TypeGraph &A, const TypeGraph &B);

/// The serialized minimal automaton of \p G (buildAutomaton numbers
/// states from the structure alone): a canonical language key for any
/// graph. The interner's fallback map is keyed on it.
std::vector<uint64_t> automatonKey(const TypeGraph &G,
                                   const SymbolTable &Syms,
                                   NormalizeScratch *Scratch = nullptr);

/// Interning statistics. The analyzer copies all but IdHits into
/// EngineStats (Intern* fields).
struct InternStats {
  uint64_t IdHits = 0;     ///< resolved by the graph's cached (epoch, id)
  uint64_t StructHits = 0; ///< resolved by the structural fast path
  uint64_t AutoHits = 0;   ///< new shape, known language (alias recorded)
  uint64_t Misses = 0;     ///< new language (canonical graph stored)
  uint64_t SharedHits = 0; ///< resolved in the frozen shared tier
  uint64_t KeysBuilt = 0;  ///< minimal automata built for the fallback
};

/// An immutable snapshot of a populated GraphInterner: the read-only
/// shared tier of the batch runtime's two-tier cache. All lookups are
/// const and every stored graph carries a precomputed structural
/// signature and a (Epoch, id) intern cache, so concurrent readers never
/// race on the lazily-filled mutable fields of TypeGraph. Construct via
/// GraphInterner::freeze().
///
/// Freeze discipline (gaia-lint `freeze-fields` / `freeze-methods`):
/// every field is const, no field is atomic and no mutating member
/// function exists, so the never-written-after-freeze contract is
/// compiler-checked (a worker's tier hit is a pure read); freeze()
/// stages the contents in a Builder and moves them into place. In audit
/// builds (GAIA_AUDIT) the containers additionally live in a
/// FrozenArena that is mprotect(PROT_READ)-ed once the tier is complete,
/// so even a const_cast write faults.
struct FrozenInternTier {
  using BucketMap =
      FrozenMap<uint64_t, FrozenVector<std::pair<const TypeGraph *,
                                                 CanonId>>>;
  using AutoKeyMap =
      FrozenMap<std::vector<uint64_t>, CanonId, U64VectorHash>;

  /// Mutable staging area for freeze(): same shape as the tier, storage
  /// already drawn from the tier's arena in audit builds (so the final
  /// move re-homes nothing).
  struct Builder {
    Builder()
        : Arena(makeTierArena()),
          Canon(makeFrozenContainer<FrozenVector<TypeGraph>>(Arena)),
          Aliases(makeFrozenContainer<FrozenDeque<TypeGraph>>(Arena)),
          StructBuckets(makeFrozenContainer<BucketMap>(Arena)),
          AutoMap(makeFrozenContainer<AutoKeyMap>(Arena)) {}
    std::shared_ptr<FrozenArena> Arena;
    uint64_t Epoch = 0;
    bool HasUncertified = false;
    FrozenVector<TypeGraph> Canon;
    FrozenDeque<TypeGraph> Aliases;
    BucketMap StructBuckets;
    AutoKeyMap AutoMap;
  };

  explicit FrozenInternTier(Builder &&B)
      : Arena(std::move(B.Arena)), Epoch(B.Epoch),
        HasUncertified(B.HasUncertified), Canon(std::move(B.Canon)),
        Aliases(std::move(B.Aliases)),
        StructBuckets(std::move(B.StructBuckets)),
        AutoMap(std::move(B.AutoMap)) {}

  /// Container teardown writes into the storage it releases, so the last
  /// reference lifts the audit seal before the members destruct.
  ~FrozenInternTier() {
    if (Arena)
      Arena->unseal();
  }

  /// Audit-build storage arena (null otherwise). Declared first: it must
  /// outlive the containers it backs.
  const std::shared_ptr<FrozenArena> Arena;
  /// Fresh process-unique epoch tag of this tier. Copies of the stored
  /// canonical graphs carry it, so any interner layered over this tier
  /// re-interns them with a tag compare.
  const uint64_t Epoch;
  /// True if an uncertified graph was interned into any interner this
  /// tier was frozen from. Interners layered over such a tier must key
  /// every structural miss by its automaton (see the file comment).
  const bool HasUncertified;
  /// Canonical representatives; the tier owns ids [0, Canon.size()).
  const FrozenVector<TypeGraph> Canon;
  /// Extra recorded shapes of known languages (deque: bucket entries
  /// hold pointers into it).
  const FrozenDeque<TypeGraph> Aliases;
  /// Shape hash -> (representative graph, id).
  const BucketMap StructBuckets;
  /// Serialized minimal automaton -> id, for every id of the tier.
  const AutoKeyMap AutoMap;

  uint32_t size() const { return static_cast<uint32_t>(Canon.size()); }

  /// Seals the arena (audit builds): every later write to tier storage
  /// faults. No-op without GAIA_AUDIT. Idempotent; const because it only
  /// flips page protection on storage the tier already cannot mutate.
  void sealStorage() const {
    if (Arena)
      Arena->seal();
  }
};

/// Assigns canonical ids to normalized type graphs. Not thread-safe; one
/// interner per analysis, sharing the analysis' SymbolTable. May be
/// layered over a FrozenInternTier (see file comment): the tier is only
/// read, so any number of concurrent interners can share one.
class GraphInterner {
public:
  explicit GraphInterner(const SymbolTable &Syms,
                         std::shared_ptr<const FrozenInternTier> Shared =
                             nullptr);

  /// Non-copyable/movable: StructBuckets holds pointers into the Canon
  /// and Aliases deques, which a copy or move would leave dangling.
  GraphInterner(const GraphInterner &) = delete;
  GraphInterner &operator=(const GraphInterner &) = delete;

  /// Interns \p G (which must be normalized — outputs of normalizeGraph /
  /// normalizeFrom or the canonical make* constructors) and returns its
  /// canonical id. Language-equal graphs receive equal ids. The resolved
  /// id is written back into the graph's intern cache (tagged with this
  /// interner's epoch, or with the shared tier's epoch when the language
  /// lives there — tier ids are valid under every interner sharing that
  /// tier), so re-interning the same value — every cached leaf operation
  /// interns its operands — is a tag compare.
  CanonId intern(const TypeGraph &G);

  /// The canonical representative of \p Id (the first graph interned with
  /// that language; for ids below the shared tier's size, the tier's
  /// graph). Stable for the interner's lifetime.
  const TypeGraph &graph(CanonId Id) const {
    return Id < Base ? Shared->Canon[Id] : Canon[Id - Base];
  }

  /// Number of distinct languages known (shared tier + private delta).
  uint32_t size() const {
    return Base + static_cast<uint32_t>(Canon.size());
  }
  /// Number of languages interned privately (beyond the shared tier).
  uint32_t deltaSize() const { return static_cast<uint32_t>(Canon.size()); }

  /// Snapshots this interner (shared tier included, ids preserved) into
  /// an immutable tier safe for unsynchronized concurrent lookups. By
  /// default the tier's audit-build storage is sealed before returning;
  /// OpCache::freeze() passes \p SealStorage = false so it can prime the
  /// frozen graphs' topology caches first, then seals via sealStorage().
  std::shared_ptr<const FrozenInternTier> freeze(bool SealStorage =
                                                     true) const;

  const FrozenInternTier *sharedTier() const { return Shared.get(); }

  const InternStats &stats() const { return St; }

private:
  /// Keys every private entry interned on the certified path, then sets
  /// NeedKeys.
  void backfillKeys();

  const SymbolTable &Syms;
  /// Read-only shared tier (may be null). Owns ids [0, Base).
  std::shared_ptr<const FrozenInternTier> Shared;
  /// First private id: the shared tier's size.
  CanonId Base = 0;
  /// Private canonical representatives, indexed by CanonId - Base.
  /// Deque: stable references across growth.
  std::deque<TypeGraph> Canon;
  /// Alias storage for structurally novel graphs of known languages.
  std::deque<TypeGraph> Aliases;
  /// Structural fast path: shape hash -> (representative graph, id).
  std::unordered_map<uint64_t, std::vector<std::pair<const TypeGraph *,
                                                     CanonId>>>
      StructBuckets;
  /// Serialized minimal automaton -> id (canonical for any graph).
  /// Complete for the private entries once NeedKeys is set, empty before.
  std::unordered_map<std::vector<uint64_t>, CanonId, U64VectorHash> AutoMap;
  /// Set once an uncertified graph reached the automaton step here or in
  /// the shared tier; from then on every structural miss is keyed.
  bool NeedKeys;
  /// Distinguishes this interner's cached ids from those of any other
  /// interner a graph value may have met (one process hosts many
  /// analyses); drawn from a process-wide counter.
  uint64_t Epoch;
  /// Normalization scratch for the automaton-key fallback path.
  NormalizeScratch Scratch;
  InternStats St;
};

} // namespace gaia

#endif // GAIA_SUPPORT_GRAPHINTERNER_H
