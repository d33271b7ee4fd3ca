//===- support/PfSetInterner.cpp -------------------------------------------=//

#include "support/PfSetInterner.h"

#include "support/Relocation.h"

#include <algorithm>
#include <atomic>
#include <cassert>

using namespace gaia;

namespace {

/// Process-wide epoch source, mirroring the graph interner's: pf-set ids
/// cached in graph topology caches are tagged with an epoch so a graph
/// value can never smuggle an id between unrelated interners. Epoch 0 is
/// the "never tagged" state, so the counter starts at 1.
uint64_t nextPfEpoch() {
  static std::atomic<uint64_t> Counter{0};
  return Counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

uint64_t elementsHash(const FunctorId *Data, size_t N) {
  std::size_t Seed = N;
  for (size_t I = 0; I != N; ++I)
    hashCombine(Seed, Data[I]);
  return Seed;
}

uint64_t elementsMask(const FunctorId *Data, size_t N) {
  uint64_t Mask = 0;
  for (size_t I = 0; I != N; ++I)
    Mask |= uint64_t(1) << (Data[I] % 64);
  return Mask;
}

} // namespace

PfSetInterner::PfSetInterner(std::shared_ptr<const FrozenPfTier> Tier)
    : Shared(std::move(Tier)), Base(Shared ? Shared->size() : 0),
      Epoch(nextPfEpoch()) {
  if (Base == 0) {
    // Reserve id 0 for the empty set (every any-vertex has it); with a
    // tier the invariant is inherited from the tier's own construction.
    Sets.push_back({0, 0, 0});
    Buckets[elementsHash(nullptr, 0)].push_back(EmptyId);
  }
  assert(size(EmptyId) == 0 && "id 0 must be the empty set");
}

PfSetId PfSetInterner::intern(const FunctorId *Data, size_t N) {
  assert(std::is_sorted(Data, Data + N) &&
         std::adjacent_find(Data, Data + N) == Data + N &&
         "pf-sets must be sorted and duplicate-free");
  uint64_t H = elementsHash(Data, N);
  auto Matches = [&](PfSetId Id) {
    return size(Id) == N && std::equal(Data, Data + N, data(Id));
  };
  if (Shared) {
    if (auto It = Shared->Buckets.find(H); It != Shared->Buckets.end())
      for (PfSetId Id : It->second)
        if (Matches(Id)) {
          ++St.SharedHits;
          return Id;
        }
  }
  auto &Bucket = Buckets[H];
  for (PfSetId Id : Bucket)
    if (Matches(Id)) {
      ++St.Hits;
      return Id;
    }
  ++St.Misses;
  PfSetId Id = Base + static_cast<PfSetId>(Sets.size());
  FrozenPfTier::Entry E;
  E.Offset = static_cast<uint32_t>(Pool.size());
  E.Size = static_cast<uint32_t>(N);
  E.Mask = elementsMask(Data, N);
  Pool.insert(Pool.end(), Data, Data + N);
  Sets.push_back(E);
  Bucket.push_back(Id);
  return Id;
}

bool PfSetInterner::subsetWalk(PfSetId A, PfSetId B) const {
  const FunctorId *DA = data(A), *DB = data(B);
  return std::includes(DB, DB + size(B), DA, DA + size(A));
}

std::shared_ptr<const FrozenPfTier> PfSetInterner::freeze() const {
  FrozenPfTier::Builder B;
  B.Epoch = nextPfEpoch();
  // Stacking preserves every pf-set id: the relocation into the new tier
  // is the identity table (mirroring GraphInterner::freeze).
  const RelocationTable<PfSetId> Reloc =
      RelocationTable<PfSetId>::identity(numSets());
  if (Shared) {
    B.Pool.assign(Shared->Pool.begin(), Shared->Pool.end());
    B.Sets.assign(Shared->Sets.begin(), Shared->Sets.end());
    for (const auto &[H, Ids] : Shared->Buckets) {
      auto &Bucket = B.Buckets[H];
      Bucket.reserve(Ids.size());
      for (PfSetId Id : Ids)
        Bucket.push_back(Reloc.map(Id));
    }
  }
  // Append the private delta; private offsets shift by the tier pool
  // size, ids are preserved (identity relocation).
  uint32_t PoolBase = static_cast<uint32_t>(B.Pool.size());
  B.Pool.insert(B.Pool.end(), Pool.begin(), Pool.end());
  B.Sets.reserve(B.Sets.size() + Sets.size());
  for (const FrozenPfTier::Entry &E : Sets)
    B.Sets.push_back({E.Offset + PoolBase, E.Size, E.Mask});
  for (const auto &[H, Ids] : Buckets) {
    auto &Bucket = B.Buckets[H];
    for (PfSetId Id : Ids)
      if (Id >= Base) // tier ids were copied with the tier's buckets
        Bucket.push_back(Reloc.map(Id));
  }
  auto T = std::make_shared<const FrozenPfTier>(std::move(B));
  T->sealStorage();
  return T;
}
