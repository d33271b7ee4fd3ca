//===- typegraph/GraphOps.h - Inclusion, intersection, union --------------==//
///
/// \file
/// The three primitive operations of Section 6.9:
///   - g1 <= g2  : denotation inclusion (exact on normalized graphs),
///   - g1 /\ g2  : intersection (used for abstract unification, since type
///                 graphs are downward closed under instantiation),
///   - g1 \/ g2  : union (a direct construction followed by
///                 normalization).
///
/// All binary constructions return normalized graphs. Inclusion requires
/// the right-hand side to be deterministic (principal-functor restricted)
/// and both sides pruned of unproductive vertices — which normalization
/// guarantees; every graph handled by the analyzer is normalized.
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_TYPEGRAPH_GRAPHOPS_H
#define GAIA_TYPEGRAPH_GRAPHOPS_H

#include "support/PfSetInterner.h"
#include "typegraph/Normalize.h"
#include "typegraph/TypeGraph.h"

namespace gaia {

/// Epoch-marked open-addressing hash table over (NodeId, NodeId) keys
/// with a uint32_t payload. The product traversals (inclusion check,
/// intersection, the widening's correspondence walk) need one visited
/// set / memo per call; `begin()` forgets the previous call's entries in
/// O(1) instead of deallocating, so a warm table performs no heap
/// traffic at all.
class PairTable {
public:
  /// Opens a new epoch; all previous entries become invisible.
  void begin() {
    ++Epoch;
    Count = 0;
    if (Slots.empty())
      Slots.resize(256);
  }

  /// Inserts (A, B) -> Val if absent (begin() must have been called).
  /// Returns the payload slot (existing or new) and whether the key was
  /// inserted.
  std::pair<uint32_t &, bool> insert(NodeId A, NodeId B, uint32_t Val = 0) {
    assert(Epoch != 0 && "PairTable::begin() not called");
    if ((Count + 1) * 4 >= Slots.size() * 3)
      grow();
    size_t I = probe(A, B);
    Slot &S = Slots[I];
    if (S.Mark == Epoch)
      return {S.Val, false};
    S.Mark = Epoch;
    S.Key = key(A, B);
    S.Val = Val;
    ++Count;
    return {S.Val, true};
  }

  /// Returns the payload of (A, B) in the current epoch, or null.
  const uint32_t *find(NodeId A, NodeId B) const {
    if (Slots.empty())
      return nullptr;
    size_t I = probe(A, B);
    return Slots[I].Mark == Epoch ? &Slots[I].Val : nullptr;
  }

private:
  struct Slot {
    uint64_t Key = 0;
    uint64_t Mark = 0;
    uint32_t Val = 0;
  };
  static uint64_t key(NodeId A, NodeId B) {
    return (uint64_t(A) << 32) | B;
  }
  /// First slot that holds (A, B) in this epoch or is free. Capacity is a
  /// power of two; linear probing.
  size_t probe(NodeId A, NodeId B) const {
    uint64_t K = key(A, B);
    uint64_t H = K * 0x9E3779B97F4A7C15ull;
    size_t Mask = Slots.size() - 1;
    size_t I = (H >> 32) & Mask;
    while (Slots[I].Mark == Epoch && Slots[I].Key != K)
      I = (I + 1) & Mask;
    return I;
  }
  void grow() {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(Old.empty() ? 256 : Old.size() * 2, Slot{});
    for (const Slot &S : Old) {
      if (S.Mark != Epoch)
        continue;
      uint64_t H = S.Key * 0x9E3779B97F4A7C15ull;
      size_t Mask = Slots.size() - 1;
      size_t I = (H >> 32) & Mask;
      while (Slots[I].Mark == Epoch)
        I = (I + 1) & Mask;
      Slots[I] = S;
    }
  }

  std::vector<Slot> Slots;
  uint64_t Epoch = 0;
  size_t Count = 0;
};

/// Reusable buffers for the pairwise graph operations and the Section 7
/// widening loop, mirroring NormalizeScratch: one instance per analysis
/// (owned by the operation cache), threaded through every entry point;
/// passing nullptr falls back to a thread-local instance. Owns the
/// analysis' pf-set interner (optionally layered over a frozen shared
/// tier, runtime/SharedCache.h) — pf-set ids are what the widening's
/// topology caches and clash tests are keyed on.
///
/// The widening-loop members (walk table, topology arrays, the
/// size-walk buffers) are implementation state of typegraph/Widening.cpp;
/// they live here so a warm widening performs no allocations.
class WideningScratch {
public:
  explicit WideningScratch(std::shared_ptr<const FrozenPfTier> SharedPf =
                               nullptr)
      : PfSets(std::move(SharedPf)) {}

  WideningScratch(const WideningScratch &) = delete;
  WideningScratch &operator=(const WideningScratch &) = delete;

  /// Interned principal-functor sets (support/PfSetInterner.h).
  PfSetInterner PfSets;
  /// Visited set of the inclusion checker.
  PairTable Incl;
  /// Product memo of the intersection construction.
  PairTable ProductMemo;

  // --- widening loop state (see typegraph/Widening.cpp) ---
  /// Correspondence-walk visited set.
  PairTable WalkSeen;
  std::vector<std::pair<NodeId, NodeId>> Pairs; ///< walk pair queue
  std::vector<std::pair<NodeId, NodeId>> Clashes;
  /// Gn topology, filled by TypeGraph::fillTopology (the same code that
  /// fills the per-graph caches).
  TypeGraph::Topology GnTopo;
  std::vector<NodeId> OrAnc;
  std::vector<uint32_t> BfsPos, Pf;
  /// Worklist and epoch-marked node set of the graph-size walk.
  std::vector<NodeId> Worklist;
  std::vector<uint64_t> NodeMark;
  uint64_t NodeEpoch = 0;
  std::vector<NodeId> StartBuf; ///< collapsing-union start vertices

  uint64_t beginNodeEpoch(size_t N) {
    if (NodeMark.size() < N)
      NodeMark.resize(N, 0);
    return ++NodeEpoch;
  }
};

namespace detail {
/// The thread-local fallback for callers that do not own a scratch.
WideningScratch &wideningScratchOr(WideningScratch *WS);
} // namespace detail

/// True if Cc(G1) is a subset of Cc(G2).
bool graphIncludes(const TypeGraph &G2, const TypeGraph &G1,
                   const SymbolTable &Syms, WideningScratch *WS = nullptr);

/// True if the denotation of vertex \p V1 of \p G1 is included in the
/// denotation of vertex \p V2 of \p G2. \p G1 and \p G2 may alias (the
/// widening compares vertices of one graph).
bool vertexIncludes(const TypeGraph &G2, NodeId V2, const TypeGraph &G1,
                    NodeId V1, const SymbolTable &Syms,
                    WideningScratch *WS = nullptr);

/// Semantic equality (inclusion both ways).
bool graphEquals(const TypeGraph &A, const TypeGraph &B,
                 const SymbolTable &Syms, WideningScratch *WS = nullptr);

/// Returns a normalized G3 with Cc(G1) ∩ Cc(G2) ⊆ Cc(G3) (exact except
/// when a cap fires).
TypeGraph graphIntersect(const TypeGraph &G1, const TypeGraph &G2,
                         const SymbolTable &Syms,
                         const NormalizeOptions &Opts = {},
                         NormalizeScratch *Scratch = nullptr,
                         WideningScratch *WS = nullptr);

/// Returns a normalized G3 with Cc(G1) ∪ Cc(G2) ⊆ Cc(G3).
TypeGraph graphUnion(const TypeGraph &G1, const TypeGraph &G2,
                     const SymbolTable &Syms,
                     const NormalizeOptions &Opts = {},
                     NormalizeScratch *Scratch = nullptr);

/// Restricts \p V to terms with principal functor \p Fn (the leaf-domain
/// unification primitive): returns false if no such terms exist;
/// otherwise fills \p ArgsOut with one normalized graph per argument.
/// \p V must be normalized.
bool graphRestrict(const TypeGraph &V, FunctorId Fn, const SymbolTable &Syms,
                   const NormalizeOptions &Opts,
                   std::vector<TypeGraph> &ArgsOut,
                   NormalizeScratch *Scratch = nullptr);

/// Builds the normalized graph denoting f(a1, ..., an) from normalized
/// argument graphs (bottom if any argument is bottom).
TypeGraph graphConstruct(FunctorId Fn, const std::vector<TypeGraph> &Args,
                         const SymbolTable &Syms,
                         const NormalizeOptions &Opts,
                         NormalizeScratch *Scratch = nullptr);

/// Deep-copies the structure reachable from \p V in \p From into \p Out,
/// returning the id of the copy. Used by product constructions.
NodeId copySubgraph(const TypeGraph &From, NodeId V, TypeGraph &Out);

} // namespace gaia

#endif // GAIA_TYPEGRAPH_GRAPHOPS_H
