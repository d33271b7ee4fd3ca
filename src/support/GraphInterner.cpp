//===- support/GraphInterner.cpp -------------------------------------------=//

#include "support/GraphInterner.h"

#include "support/Debug.h"
#include "support/FaultInject.h"
#include "typegraph/Normalize.h"

#include <atomic>
#include <cstdio>
#include <string>

using namespace gaia;

uint64_t gaia::structuralHash(const TypeGraph &G) {
  if (G.structSigValid())
    return G.structSig();
  uint64_t Result;
  if (G.root() == InvalidNode) {
    Result = 0x1507;
  } else {
    // Single-pass BFS with reused thread-local buffers: this runs on
    // every interner miss, so it must not allocate per call.
    static thread_local std::vector<uint32_t> Remap;
    static thread_local std::vector<NodeId> Order;
    Remap.assign(G.numNodes(), ~0u);
    Order.clear();
    Order.push_back(G.root());
    Remap[G.root()] = 0;
    for (size_t Head = 0; Head != Order.size(); ++Head)
      for (NodeId S : G.node(Order[Head]).Succs)
        if (Remap[S] == ~0u) {
          Remap[S] = static_cast<uint32_t>(Order.size());
          Order.push_back(S);
        }
    std::size_t Seed = Order.size();
    for (NodeId V : Order) {
      const TGNode &N = G.node(V);
      hashCombine(Seed, static_cast<std::size_t>(N.Kind));
      if (N.Kind == NodeKind::Func)
        hashCombine(Seed, N.Fn);
      hashCombine(Seed, N.Succs.size());
      for (NodeId S : N.Succs)
        hashCombine(Seed, Remap[S]);
    }
    Result = Seed;
  }
  G.setStructSig(Result);
  return Result;
}

bool gaia::structuralEqual(const TypeGraph &A, const TypeGraph &B) {
  if ((A.root() == InvalidNode) != (B.root() == InvalidNode))
    return false;
  if (A.root() == InvalidNode)
    return true;
  // Lock-step BFS over both graphs: the pair of traversals assigns the
  // same canonical number to corresponding vertices and fails fast at
  // the first divergence (kind, functor, successor count, or successor
  // numbering). Equivalent to comparing the two BFS-renumbered graphs,
  // without materializing either topology.
  static thread_local std::vector<uint32_t> RemapA, RemapB;
  static thread_local std::vector<NodeId> OrderA, OrderB;
  RemapA.assign(A.numNodes(), ~0u);
  RemapB.assign(B.numNodes(), ~0u);
  OrderA.clear();
  OrderB.clear();
  OrderA.push_back(A.root());
  OrderB.push_back(B.root());
  RemapA[A.root()] = 0;
  RemapB[B.root()] = 0;
  for (size_t Head = 0; Head != OrderA.size(); ++Head) {
    const TGNode &NA = A.node(OrderA[Head]);
    const TGNode &NB = B.node(OrderB[Head]);
    if (NA.Kind != NB.Kind || NA.Succs.size() != NB.Succs.size())
      return false;
    if (NA.Kind == NodeKind::Func && NA.Fn != NB.Fn)
      return false;
    for (size_t J = 0; J != NA.Succs.size(); ++J) {
      NodeId SA = NA.Succs[J], SB = NB.Succs[J];
      uint32_t MA = RemapA[SA], MB = RemapB[SB];
      if (MA != MB)
        return false;
      if (MA == ~0u) {
        RemapA[SA] = RemapB[SB] = static_cast<uint32_t>(OrderA.size());
        OrderA.push_back(SA);
        OrderB.push_back(SB);
      }
    }
  }
  return true;
}

/// Serializes the canonical minimal automaton of \p G into a flat word
/// sequence. buildAutomaton numbers states deterministically from the
/// structure alone, so the serialization is a canonical language key.
std::vector<uint64_t> gaia::automatonKey(const TypeGraph &G,
                                         const SymbolTable &Syms,
                                         NormalizeScratch *Scratch) {
  GrammarAutomaton A = buildAutomaton(G, Syms, Scratch);
  std::vector<uint64_t> Key;
  if (A.Empty) {
    Key.push_back(0xE0);
    return Key;
  }
  // Exact size up front: tier maps keep these vectors for their
  // lifetime, so growth slack would be resident memory.
  size_t Words = 1;
  for (const GrammarAutomaton::State &S : A.States) {
    Words += 2;
    for (const auto &[Fn, Args] : S.Trans)
      Words += 1 + Args.size();
  }
  Key.reserve(Words);
  Key.push_back(A.States.size());
  for (const GrammarAutomaton::State &S : A.States) {
    Key.push_back((S.IsAny ? 2 : 0) | (S.HasInt ? 1 : 0));
    Key.push_back(S.Trans.size());
    for (const auto &[Fn, Args] : S.Trans) {
      Key.push_back(Fn);
      for (uint32_t Arg : Args)
        Key.push_back(Arg);
    }
  }
  return Key;
}

namespace {

/// Process-wide epoch source for interner identity tags. Epoch 0 is the
/// "never interned" state of a fresh graph, so the counter starts at 1.
/// Atomic: individual interners are single-threaded, but interners for
/// independent analyses may be constructed concurrently, and a duplicated
/// epoch would let a graph smuggle a cached id across interners.
uint64_t nextInternerEpoch() {
  static std::atomic<uint64_t> Counter{0};
  return Counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Debug and audit builds re-derive what the keyless path trusts: a
/// certificate on a non-canonical graph would mint a second id for a
/// known language, so it must fail here, loudly.
void auditCertificate(const TypeGraph &G, const SymbolTable &Syms) {
#if !defined(NDEBUG) || defined(GAIA_AUDIT)
  std::string Why;
  if (!G.cachesFresh(Syms, &Why)) {
    std::fprintf(stderr, "interned graph fails its cache audit: %s\n",
                 Why.c_str());
    GAIA_UNREACHABLE("GraphInterner trusted a lying certificate");
  }
#else
  (void)G;
  (void)Syms;
#endif
}

} // namespace

GraphInterner::GraphInterner(const SymbolTable &Syms,
                             std::shared_ptr<const FrozenInternTier> Tier)
    : Syms(Syms), Shared(std::move(Tier)),
      Base(Shared ? Shared->size() : 0),
      NeedKeys(Shared && Shared->HasUncertified), Epoch(nextInternerEpoch()) {}

void GraphInterner::backfillKeys() {
  for (uint32_t I = 0; I != Canon.size(); ++I) {
    AutoMap.emplace(automatonKey(Canon[I], Syms, &Scratch), Base + I);
    ++St.KeysBuilt;
  }
  NeedKeys = true;
}

CanonId GraphInterner::intern(const TypeGraph &G) {
  // O(1) path: this exact value object (or a copy of one) has been
  // through this interner — or through the shared tier, whose ids form
  // the dense prefix of this interner's id space and are therefore valid
  // here as-is.
  if (G.internEpoch() == Epoch) {
    ++St.IdHits;
    return G.internId();
  }
  if (Shared && G.internEpoch() == Shared->Epoch) {
    ++St.SharedHits;
    return G.internId();
  }

  // Chaos probe after the O(1) epoch fast paths: only slow-path interns
  // (the ones that hash, compare, and may copy into the delta) can
  // fault, mirroring where a real interner defect would live.
  GAIA_FAULT_POINT(Intern);

  uint64_t H = structuralHash(G);

  // Frozen shared tier: lookups only, never mutated (concurrent workers
  // read it unsynchronized). A hit is cached on the *value* under the
  // tier's epoch, so copies keep resolving against any interner layered
  // over the same tier.
  if (Shared) {
    if (auto BucketIt = Shared->StructBuckets.find(H);
        BucketIt != Shared->StructBuckets.end())
      for (const auto &[Rep, Id] : BucketIt->second)
        if (structuralEqual(*Rep, G)) {
          ++St.SharedHits;
          G.setInternCache(Shared->Epoch, Id);
          return Id;
        }
  }

  auto &Bucket = StructBuckets[H];
  for (const auto &[Rep, Id] : Bucket)
    if (structuralEqual(*Rep, G)) {
      ++St.StructHits;
      G.setInternCache(Epoch, Id);
      return Id;
    }

  // A certified graph that missed every structural map is a new
  // language unless an uncertified graph may hold it (see file comment):
  // only then is the minimal automaton worth building.
  std::vector<uint64_t> AKey;
  if (NeedKeys || !G.hasNormCertificate()) {
    if (!NeedKeys)
      backfillKeys();
    AKey = automatonKey(G, Syms, &Scratch);
    ++St.KeysBuilt;
    if (Shared) {
      auto SharedIt = Shared->AutoMap.find(AKey);
      if (SharedIt != Shared->AutoMap.end()) {
        // New shape of a language the shared tier knows: record the
        // shape privately so the next structural lookup short-circuits.
        ++St.SharedHits;
        Aliases.push_back(G);
        Bucket.emplace_back(&Aliases.back(), SharedIt->second);
        G.setInternCache(Shared->Epoch, SharedIt->second);
        return SharedIt->second;
      }
    }
    auto It = AutoMap.find(AKey);
    if (It != AutoMap.end()) {
      // New shape of a known language: remember it so the next
      // structural lookup of this shape short-circuits.
      ++St.AutoHits;
      Aliases.push_back(G);
      Bucket.emplace_back(&Aliases.back(), It->second);
      G.setInternCache(Epoch, It->second);
      return It->second;
    }
  } else {
    auditCertificate(G, Syms);
  }

  ++St.Misses;
  CanonId Id = Base + static_cast<CanonId>(Canon.size());
  Canon.push_back(G);
  Canon.back().setInternCache(Epoch, Id);
  Bucket.emplace_back(&Canon.back(), Id);
  if (NeedKeys)
    AutoMap.emplace(std::move(AKey), Id);
  G.setInternCache(Epoch, Id);
  return Id;
}

std::shared_ptr<const FrozenInternTier>
GraphInterner::freeze(bool SealStorage) const {
  assert(!Shared && "a tier is frozen from a cold interner only");
  FrozenInternTier::Builder B;
  B.Epoch = nextInternerEpoch();

  // Canonical graphs, at their own ids. Fill the vector completely
  // before taking pointers into it for the buckets (the final move into
  // the tier steals the buffer, so the pointers stay valid).
  B.Canon.assign(Canon.begin(), Canon.end());
  for (CanonId Id = 0; Id != static_cast<CanonId>(B.Canon.size()); ++Id) {
    // Precompute the lazily-filled mutable caches now, so tier lookups
    // are pure reads: concurrent workers must never write into these
    // graphs.
    structuralHash(B.Canon[Id]);
    B.Canon[Id].setInternCache(B.Epoch, Id);
  }

  // Re-home the structural buckets: canonical representatives point at
  // the new Canon storage, recorded aliases are copied over.
  for (const auto &[Hash, Entries] : StructBuckets)
    for (const auto &[Rep, Id] : Entries) {
      if (Rep == &Canon[Id]) {
        B.StructBuckets[Hash].emplace_back(&B.Canon[Id], Id);
      } else {
        B.Aliases.push_back(*Rep);
        structuralHash(B.Aliases.back());
        B.StructBuckets[Hash].emplace_back(&B.Aliases.back(), Id);
      }
    }

  B.AutoMap.insert(AutoMap.begin(), AutoMap.end());
  // Entries interned on the certified path have no key yet. Complete
  // them: a worker over this tier that meets an uncertified alias of a
  // tier language must find the tier's id by automaton.
  // A local scratch, not the thread-local fallback: its buffers die
  // with the call instead of pinning memory on the freezing thread.
  if (!NeedKeys) {
    NormalizeScratch KeyScratch;
    for (CanonId Id = 0; Id != Canon.size(); ++Id)
      B.AutoMap.emplace(automatonKey(Canon[Id], Syms, &KeyScratch), Id);
  }
  B.HasUncertified = NeedKeys;

  auto T = std::make_shared<const FrozenInternTier>(std::move(B));
  if (SealStorage)
    T->sealStorage();
  return T;
}
