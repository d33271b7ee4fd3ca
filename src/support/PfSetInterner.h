//===- support/PfSetInterner.h - Interned principal-functor sets ----------==//
///
/// \file
/// Dense canonical ids for principal-functor sets (paper Section 6.3).
/// The Section 7 widening compares pf-sets constantly: the correspondence
/// walk asks `pf(Vo) == pf(Vn)` at every or-pair and the two transform
/// rules ask `pf(Vn) ⊆ pf(Va)` against every or-ancestor. Deriving those
/// sets as freshly allocated sorted vectors on every comparison was the
/// dominant allocation source of the widening hot loop; interning gives
///
///   - equality as an integer comparison (equal set iff equal PfSetId),
///   - an O(1) subset *rejection* via precomputed 64-bit element masks
///     (A ⊆ B is impossible when A's mask has a bit outside B's), with
///     an allocation-free merge walk over the pooled elements as the
///     exact confirmation, and
///   - per-graph topology caches that store one id per vertex instead of
///     one vector (typegraph/TypeGraph.h).
///
/// Ids are only comparable within one interner — except across the
/// frozen-tier layering of the batch runtime, which mirrors
/// support/GraphInterner.h: `freeze()` snapshots an interner into an
/// immutable FrozenPfTier whose lookups are safe for unsynchronized
/// concurrent readers; an interner constructed over a tier resolves known
/// sets to the tier's ids (the dense prefix [0, size)) and allocates new
/// ids from size upward. Epoch tags cached in graph topology caches are
/// drawn from one process-wide counter, so a cached id can never alias
/// across unrelated interners.
///
/// Pf-set identity is also exactly the structure non-discriminative-union
/// analyses key their precision on (Lu, "Improving Precision of Type
/// Analysis Using Non-Discriminative Union"), so the ids are a natural
/// substrate for future domain variants, not just a widening cache.
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_SUPPORT_PFSETINTERNER_H
#define GAIA_SUPPORT_PFSETINTERNER_H

#include "support/FrozenArena.h"
#include "support/Hashing.h"
#include "support/StringInterner.h"

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

namespace gaia {

/// Dense id of an interned principal-functor set.
using PfSetId = uint32_t;
constexpr PfSetId InvalidPfSet = ~0u;

/// Interning statistics (surfaced through EngineStats by the analyzer and
/// printed by bench/widening_ablation).
struct PfSetStats {
  uint64_t Hits = 0;       ///< resolved in the private delta
  uint64_t SharedHits = 0; ///< resolved in the frozen shared tier
  uint64_t Misses = 0;     ///< new set recorded
  double hitRate() const {
    uint64_t Total = Hits + SharedHits + Misses;
    return Total ? double(Hits + SharedHits) / double(Total) : 0.0;
  }
};

/// An immutable snapshot of a populated PfSetInterner: the read-only
/// shared tier of the batch runtime. All lookups are const and all
/// derived fields (masks, hashes) are precomputed, so concurrent readers
/// never write. Construct via PfSetInterner::freeze().
///
/// Freeze discipline (gaia-lint `freeze-fields` / `freeze-methods`):
/// every field is const, there is no mutating member function, and in
/// audit builds (GAIA_AUDIT) the pooled elements, entry table and
/// buckets live in a FrozenArena sealed to PROT_READ after freeze().
struct FrozenPfTier {
  struct Entry {
    uint32_t Offset = 0; ///< into Pool
    uint32_t Size = 0;
    uint64_t Mask = 0; ///< element summary bits (bit = functor id % 64)
  };
  using BucketMap = FrozenMap<uint64_t, FrozenVector<PfSetId>>;

  /// Mutable staging area for freeze(); in audit builds its containers
  /// already draw from the tier's arena.
  struct Builder {
    Builder()
        : Arena(makeTierArena()),
          Pool(makeFrozenContainer<FrozenVector<FunctorId>>(Arena)),
          Sets(makeFrozenContainer<FrozenVector<Entry>>(Arena)),
          Buckets(makeFrozenContainer<BucketMap>(Arena)) {}
    std::shared_ptr<FrozenArena> Arena;
    uint64_t Epoch = 0;
    FrozenVector<FunctorId> Pool;
    FrozenVector<Entry> Sets;
    BucketMap Buckets;
  };

  explicit FrozenPfTier(Builder &&B)
      : Arena(std::move(B.Arena)), Epoch(B.Epoch), Pool(std::move(B.Pool)),
        Sets(std::move(B.Sets)), Buckets(std::move(B.Buckets)) {}

  /// Container teardown writes into the storage it releases, so the last
  /// reference lifts the audit seal before the members destruct.
  ~FrozenPfTier() {
    if (Arena)
      Arena->unseal();
  }

  /// Audit-build storage arena (null otherwise); declared first so it
  /// outlives the containers it backs.
  const std::shared_ptr<FrozenArena> Arena;
  /// Fresh process-unique epoch tag of this tier; topology caches built
  /// against it carry this tag.
  const uint64_t Epoch;
  const FrozenVector<FunctorId> Pool; ///< concatenated sorted elements
  const FrozenVector<Entry> Sets; ///< the tier owns ids [0, Sets.size())
  /// Element hash -> candidate ids (usually a single entry).
  const BucketMap Buckets;

  uint32_t size() const { return static_cast<uint32_t>(Sets.size()); }

  /// Seals the arena (audit builds): every later write to tier storage
  /// faults. No-op without GAIA_AUDIT.
  void sealStorage() const {
    if (Arena)
      Arena->seal();
  }
};

/// Assigns canonical ids to sorted, duplicate-free functor-id sets. Not
/// thread-safe; one per analysis (owned by the OpCache's widening
/// scratch), optionally layered over a FrozenPfTier that is only read.
class PfSetInterner {
public:
  explicit PfSetInterner(std::shared_ptr<const FrozenPfTier> Shared =
                             nullptr);

  PfSetInterner(const PfSetInterner &) = delete;
  PfSetInterner &operator=(const PfSetInterner &) = delete;

  /// Interns the sorted unique set [Data, Data+N). Equal sets receive
  /// equal ids; the empty set is always id 0.
  PfSetId intern(const FunctorId *Data, size_t N);
  PfSetId intern(const std::vector<FunctorId> &Set) {
    return intern(Set.data(), Set.size());
  }

  /// True if set \p A is a subset of \p B. Id equality and the element
  /// masks make the common cases integer compares; the fallback is an
  /// allocation-free merge walk over the pooled elements.
  bool subsetOf(PfSetId A, PfSetId B) const {
    if (A == B || A == EmptyId)
      return true;
    uint64_t MA = mask(A);
    if ((MA & ~mask(B)) != 0)
      return false;
    return subsetWalk(A, B);
  }

  /// The id of the empty set.
  static constexpr PfSetId EmptyId = 0;
  bool isEmpty(PfSetId Id) const { return Id == EmptyId; }

  /// Elements of \p Id (sorted, unique). Stable for the interner's
  /// lifetime.
  const FunctorId *data(PfSetId Id) const {
    return Id < Base ? Shared->Pool.data() + Shared->Sets[Id].Offset
                     : Pool.data() + Sets[Id - Base].Offset;
  }
  uint32_t size(PfSetId Id) const {
    return Id < Base ? Shared->Sets[Id].Size : Sets[Id - Base].Size;
  }

  /// Number of distinct sets known (shared tier + private delta).
  uint32_t numSets() const {
    return Base + static_cast<uint32_t>(Sets.size());
  }

  /// Epochs this interner honors in graph topology caches: its own, and
  /// the frozen tier's (tier ids form the dense prefix of the id space).
  uint64_t epoch() const { return Epoch; }
  bool honorsEpoch(uint64_t E) const {
    return E == Epoch || (Shared && E == Shared->Epoch);
  }
  /// Number of ids owned by the shared tier (0 without one). Ids below
  /// this are portable to every interner layered over the same tier — a
  /// topology cache whose pf ids are all below it is tagged with the
  /// tier's epoch instead of this interner's, so one frozen graph can
  /// serve every worker (see TypeGraph::topology).
  uint32_t sharedSize() const { return Base; }
  uint64_t sharedEpoch() const { return Shared ? Shared->Epoch : 0; }

  /// Snapshots this interner (ids preserved) into an immutable tier safe
  /// for unsynchronized concurrent lookups. Only an interner built
  /// without a shared tier may be frozen: tiers do not stack.
  std::shared_ptr<const FrozenPfTier> freeze() const;

  const FrozenPfTier *sharedTier() const { return Shared.get(); }
  const PfSetStats &stats() const { return St; }

private:
  uint64_t mask(PfSetId Id) const {
    return Id < Base ? Shared->Sets[Id].Mask : Sets[Id - Base].Mask;
  }
  bool subsetWalk(PfSetId A, PfSetId B) const;

  std::shared_ptr<const FrozenPfTier> Shared;
  /// First private id: the shared tier's size.
  PfSetId Base = 0;
  std::vector<FunctorId> Pool;
  std::vector<FrozenPfTier::Entry> Sets;
  std::unordered_map<uint64_t, std::vector<PfSetId>> Buckets;
  uint64_t Epoch;
  PfSetStats St;
};

} // namespace gaia

#endif // GAIA_SUPPORT_PFSETINTERNER_H
