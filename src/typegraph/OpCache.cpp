//===- typegraph/OpCache.cpp -----------------------------------------------=//

#include "typegraph/OpCache.h"

#include "support/FaultInject.h"
#include "typegraph/GraphOps.h"

#include <algorithm>
#include <utility>

using namespace gaia;

bool OpCache::includes(const TypeGraph &Big, const TypeGraph &Small) {
  GAIA_FAULT_POINT(OpCacheLookup);
  CanonId B = Interned.intern(Big);
  CanonId S = Interned.intern(Small);
  if (B == S)
    return true; // same language
  auto Key = std::make_pair(B, S);
  if (Shared) {
    auto It = Shared->Incl.find(Key);
    if (It != Shared->Incl.end()) {
      ++St.SharedHits;
      return It->second != 0;
    }
  }
  auto It = Incl.find(Key);
  if (It != Incl.end()) {
    ++St.Hits;
    return It->second != 0;
  }
  ++St.Misses;
  bool Result =
      graphIncludes(Interned.graph(B), Interned.graph(S), Syms, &WScratch);
  Incl.emplace(Key, uint8_t(Result ? 1 : 0));
  return Result;
}

TypeGraph OpCache::unionOf(const TypeGraph &A, const TypeGraph &B) {
  GAIA_FAULT_POINT(OpCacheLookup);
  CanonId IA = Interned.intern(A);
  CanonId IB = Interned.intern(B);
  // X U X = X — but only a *certified* canonical graph is known to be a
  // fixed point of re-normalization (a MaxNodes/MaxDepth truncation
  // withholds the certificate precisely because it breaks idempotence),
  // so an uncertified operand falls through to the historic compute.
  if (IA == IB && certified(IA)) {
    ++St.Hits;
    return Interned.graph(IA);
  }
  auto Key = std::make_pair(std::min(IA, IB), std::max(IA, IB));
  if (Shared) {
    auto It = Shared->Union.find(Key);
    if (It != Shared->Union.end()) {
      ++St.SharedHits;
      return Interned.graph(It->second);
    }
  }
  auto It = Union.find(Key);
  if (It != Union.end()) {
    ++St.Hits;
    return Interned.graph(It->second);
  }
  ++St.Misses;
  // Inclusion fast path: when one language contains the other, the
  // union *is* the container — determinize/minimize are functions of
  // the operand language, and the container's certificate proves its
  // canonical unfold fits the bounds, so the computed union would
  // reproduce the container bit-for-bit and intern to exactly its id.
  // (Without the certificate a MaxNodes/MaxDepth truncation could fire
  // on the recomputation and over-approximate; the guard keeps the
  // shortcut unobservable in every configuration.) The inclusion checks
  // are memoized product walks, far cheaper than determinize + minimize
  // + unfold, and the recorded memo makes the next lookup a plain hit.
  if (certified(IA) && includes(Interned.graph(IA), Interned.graph(IB))) {
    Union.emplace(Key, IA);
    return Interned.graph(IA);
  }
  if (certified(IB) && includes(Interned.graph(IB), Interned.graph(IA))) {
    Union.emplace(Key, IB);
    return Interned.graph(IB);
  }
  CanonId R = Interned.intern(graphUnion(Interned.graph(IA),
                                         Interned.graph(IB), Syms, Norm,
                                         &Scratch));
  Union.emplace(Key, R);
  return Interned.graph(R);
}

TypeGraph OpCache::intersectOf(const TypeGraph &A, const TypeGraph &B) {
  GAIA_FAULT_POINT(OpCacheLookup);
  CanonId IA = Interned.intern(A);
  CanonId IB = Interned.intern(B);
  if (IA == IB && certified(IA)) { // X /\ X = X (see unionOf)
    ++St.Hits;
    return Interned.graph(IA);
  }
  auto Key = std::make_pair(std::min(IA, IB), std::max(IA, IB));
  if (Shared) {
    auto It = Shared->Inter.find(Key);
    if (It != Shared->Inter.end()) {
      ++St.SharedHits;
      return Interned.graph(It->second);
    }
  }
  auto It = Inter.find(Key);
  if (It != Inter.end()) {
    ++St.Hits;
    return Interned.graph(It->second);
  }
  ++St.Misses;
  // Inclusion fast path (see unionOf): the intersection with a
  // containing language is the contained operand itself — guarded on
  // the *returned* operand's certificate for the same reason.
  if (certified(IB) && includes(Interned.graph(IA), Interned.graph(IB))) {
    Inter.emplace(Key, IB);
    return Interned.graph(IB);
  }
  if (certified(IA) && includes(Interned.graph(IB), Interned.graph(IA))) {
    Inter.emplace(Key, IA);
    return Interned.graph(IA);
  }
  CanonId R = Interned.intern(graphIntersect(Interned.graph(IA),
                                             Interned.graph(IB), Syms, Norm,
                                             &Scratch, &WScratch));
  Inter.emplace(Key, R);
  return Interned.graph(R);
}

TypeGraph OpCache::widenOf(const TypeGraph &Old, const TypeGraph &New,
                           const WideningOptions &Opts,
                           WideningStats *WStats) {
  GAIA_FAULT_POINT(OpCacheLookup);
  CanonId IO = Interned.intern(Old);
  CanonId IN = Interned.intern(New);
  if (IO == IN) { // X <= X, so X V X = X (the includes() fast path)
    ++St.Hits;
    if (WStats)
      ++WStats->Invocations;
    return Interned.graph(IO);
  }
  auto Key = std::make_pair(IO, IN); // widening is not commutative
  if (Shared) {
    auto It = Shared->Widen.find(Key);
    if (It != Shared->Widen.end()) {
      ++St.SharedHits;
      if (WStats)
        ++WStats->CacheHits;
      return Interned.graph(It->second);
    }
  }
  auto It = Widen.find(Key);
  if (It != Widen.end()) {
    ++St.Hits;
    if (WStats)
      ++WStats->CacheHits;
    return Interned.graph(It->second);
  }
  ++St.Misses;
  // Inclusion fast path: graphWiden's first step returns Old when New
  // is already included; routing the check through the memoized
  // includes() lets repeated no-op widenings skip the uncached walk.
  // When it is refuted, the NotIncluded entry point skips graphWiden's
  // own entry check so the product walk is not repeated.
  if (includes(Interned.graph(IO), Interned.graph(IN))) {
    if (WStats)
      ++WStats->Invocations;
    Widen.emplace(Key, IO);
    return Interned.graph(IO);
  }
  CanonId R = Interned.intern(detail::graphWidenNotIncluded(
      Interned.graph(IO), Interned.graph(IN), Syms, Opts, WStats, &Scratch,
      &WScratch));
  Widen.emplace(Key, R);
  return Interned.graph(R);
}

bool OpCache::restrictOf(const TypeGraph &V, FunctorId Fn,
                         std::vector<TypeGraph> &ArgsOut) {
  GAIA_FAULT_POINT(OpCacheLookup);
  CanonId Id = Interned.intern(V);
  auto Key = std::make_pair(Id, static_cast<uint32_t>(Fn));
  auto Unpack = [&](const RestrictMemo &M) {
    ArgsOut.clear();
    for (CanonId A : M.Args)
      ArgsOut.push_back(Interned.graph(A));
    return M.Ok;
  };
  if (Shared) {
    auto It = Shared->Restrict.find(Key);
    if (It != Shared->Restrict.end()) {
      ++St.SharedHits;
      return Unpack(It->second);
    }
  }
  auto It = Restrict.find(Key);
  if (It != Restrict.end()) {
    ++St.Hits;
    return Unpack(It->second);
  }
  ++St.Misses;
  RestrictMemo R;
  R.Ok = graphRestrict(Interned.graph(Id), Fn, Syms, Norm, ArgsOut, &Scratch);
  for (const TypeGraph &A : ArgsOut)
    R.Args.push_back(Interned.intern(A));
  // Hand back the canonical representatives: they carry their interner
  // caches, so downstream operations on these values intern in O(1).
  bool Ok = Unpack(R);
  Restrict.emplace(Key, std::move(R));
  return Ok;
}

TypeGraph OpCache::constructOf(FunctorId Fn,
                               const std::vector<TypeGraph> &Args) {
  GAIA_FAULT_POINT(OpCacheLookup);
  std::vector<uint32_t> Key;
  Key.reserve(Args.size() + 1);
  Key.push_back(Fn);
  for (const TypeGraph &A : Args)
    Key.push_back(Interned.intern(A));
  if (Shared) {
    auto It = Shared->Construct.find(Key);
    if (It != Shared->Construct.end()) {
      ++St.SharedHits;
      return Interned.graph(It->second);
    }
  }
  auto It = Construct.find(Key);
  if (It != Construct.end()) {
    ++St.Hits;
    return Interned.graph(It->second);
  }
  ++St.Misses;
  CanonId R =
      Interned.intern(graphConstruct(Fn, Args, Syms, Norm, &Scratch));
  Construct.emplace(std::move(Key), R);
  return Interned.graph(R);
}

std::shared_ptr<const FrozenOpTier> OpCache::freeze() const {
  FrozenOpTier::Builder B;

  // Pf pre-pass: make sure every pf-set a widening over a tier graph
  // could ask for — i.e. every or-vertex pf-set of every canonical
  // graph — is interned before the pf tier is frozen. (Interning is the
  // side effect; the topology caches built here on *private* canon
  // graphs are a bonus for the rest of this cache's lifetime.)
  for (CanonId Id = 0; Id != Interned.size(); ++Id)
    Interned.graph(Id).topology(Syms, WScratch.PfSets);
  B.Pf = WScratch.PfSets.freeze();

  // Unsealed: the topology priming below still writes the frozen graphs'
  // lazily-filled caches. Sealed right after, before any worker can see
  // the tier.
  B.Intern = Interned.freeze(/*SealStorage=*/false);
  // Prime every canonical graph's topology cache against the *frozen*
  // pf tier: the pre-pass guarantees every lookup hits the tier, so the
  // caches are tagged with the tier's epoch and are valid under every
  // worker interner layered over it — concurrent widenings never write.
  {
    PfSetInterner Primer(B.Pf);
    for (CanonId Id = 0; Id != B.Intern->size(); ++Id) {
      const TypeGraph &G = B.Intern->Canon[Id];
      G.topology(Syms, Primer);
      assert(Primer.honorsEpoch(G.topoCacheIfPresent()->PfEpoch) &&
             G.topoCacheIfPresent()->PfEpoch == B.Pf->Epoch &&
             "frozen graph topology must be tier-tagged");
    }
  }
  B.Intern->sealStorage();
  B.Norm = Norm;
  // Merge: the shared tier's results first, then the private delta. Keys
  // never conflict on semantics (both tiers record the same pure
  // function of the operand languages), so insert's keep-first policy
  // is immaterial.
  if (Shared) {
    B.Incl.insert(Shared->Incl.begin(), Shared->Incl.end());
    B.Union.insert(Shared->Union.begin(), Shared->Union.end());
    B.Inter.insert(Shared->Inter.begin(), Shared->Inter.end());
    B.Widen.insert(Shared->Widen.begin(), Shared->Widen.end());
    B.Restrict.insert(Shared->Restrict.begin(), Shared->Restrict.end());
    B.Construct.insert(Shared->Construct.begin(), Shared->Construct.end());
  }
  B.Incl.insert(Incl.begin(), Incl.end());
  B.Union.insert(Union.begin(), Union.end());
  B.Inter.insert(Inter.begin(), Inter.end());
  B.Widen.insert(Widen.begin(), Widen.end());
  B.Restrict.insert(Restrict.begin(), Restrict.end());
  B.Construct.insert(Construct.begin(), Construct.end());

  auto T = std::make_shared<const FrozenOpTier>(std::move(B));
  T->sealStorage();
  return T;
}
