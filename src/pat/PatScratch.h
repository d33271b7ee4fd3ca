//===- pat/PatScratch.h - Reusable buffers for the pattern domain ---------==//
///
/// \file
/// The operations of Pat(R) (pat/PatSub.h) walk the subterm graph of one
/// or two substitutions and keep per-walk maps keyed by subterm index:
/// the copy map of project/extendForClause, the callee-to-caller map of
/// EXTC, the B-to-A map of leq, the discovery numbering of canonKey, the
/// folded values of termValue and the (A, B) pair memo of join/widen.
/// The indices are dense (0 .. Subs.size()), so each map is a flat array
/// cleared by opening a new epoch, and its storage is reused by every
/// later walk on the same thread.
///
/// The walks nest: join's leaf case folds both operands into leaf values
/// while its pair memo is live, leq folds A's subterm while its B-to-A
/// map is live, and termValue and the unification helpers hold one
/// argument buffer per recursion level. So PatScratch hands its buffers
/// out as stack-ordered leases: a lease takes the next free object of
/// its pool and returns it when it goes out of scope, so live leases
/// never share storage and an exception unwinds them in order.
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_PAT_PATSCRATCH_H
#define GAIA_PAT_PATSCRATCH_H

#include "support/DenseIdTable.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace gaia {

/// A map from dense subterm indices to uint32 values. `reset` opens a new
/// epoch over at least \p N keys, so emptying it costs nothing however
/// large an earlier walk made it.
class DenseIdx {
public:
  static constexpr uint32_t Absent = ~0u;

  void reset(uint32_t N) {
    if (Slots.size() < N)
      Slots.resize(N, Slot{0, 0});
    if (++Epoch == 0) { // wrapped: stale tags could alias, wipe them
      for (Slot &S : Slots)
        S.Stamp = 0;
      Epoch = 1;
    }
  }

  uint32_t get(uint32_t I) const {
    assert(I < Slots.size() && "index outside the reset range");
    return Slots[I].Stamp == Epoch ? Slots[I].Val : Absent;
  }
  void set(uint32_t I, uint32_t V) {
    assert(I < Slots.size() && "index outside the reset range");
    Slots[I] = Slot{Epoch, V};
  }

  void acquire(uint32_t N) { reset(N); }
  void release() {}

private:
  struct Slot {
    uint32_t Stamp;
    uint32_t Val;
  };
  std::vector<Slot> Slots;
  uint32_t Epoch = 0;
};

/// A stack of reusable scratch objects. `lease` hands out the next free
/// object (calling its `acquire` with the given arguments); the object
/// returns to the pool, after its `release`, when the lease is destroyed.
/// Leases must end in the reverse order they began, which scoped locals
/// guarantee.
template <typename T> class LeasePool {
public:
  class Lease {
  public:
    Lease(LeasePool &Pool, T &Item) : Pool(Pool), Item(Item) {}
    Lease(const Lease &) = delete;
    Lease &operator=(const Lease &) = delete;
    ~Lease() {
      Item.release();
      assert(Pool.Depth != 0 && &Item == Pool.Items[Pool.Depth - 1].get() &&
             "scratch leases must end in reverse order");
      --Pool.Depth;
    }
    T &operator*() const { return Item; }
    T *operator->() const { return &Item; }

  private:
    LeasePool &Pool;
    T &Item;
  };

  template <typename... Args> Lease lease(Args &&...A) {
    if (Depth == Items.size())
      Items.push_back(std::make_unique<T>());
    T &Item = *Items[Depth];
    Item.acquire(std::forward<Args>(A)...);
    ++Depth;
    return Lease(*this, Item);
  }

private:
  std::vector<std::unique_ptr<T>> Items;
  uint32_t Depth = 0;
};

/// Per-thread buffers of PatSub<Leaf> for leaf values of type \p Value.
/// Leaf values never outlive a lease (released buffers are cleared), so
/// the scratch holds no value between two operations.
template <typename Value> struct PatScratch {
  /// termValue's fold of one subterm: index -> position in Vals, or
  /// InProgress for a frame whose arguments are being folded (a rational
  /// cycle back to it is cut with Any).
  struct ValueMemo {
    static constexpr uint32_t InProgress = DenseIdx::Absent - 1;
    DenseIdx Pos;
    std::vector<Value> Vals;
    void acquire(uint32_t N) { Pos.reset(N); }
    void release() { Vals.clear(); }
  };

  /// An argument-value buffer for Leaf::restrictTo and Leaf::construct.
  struct ValueBuf {
    std::vector<Value> Vals;
    void acquire() {}
    void release() { Vals.clear(); }
  };

  /// join/widen's memo: (A index, B index) -> result index. Result nodes
  /// are created exactly when their pair is inserted, so the table's
  /// dense id of a pair is the result index itself; Keys[id] is the pair.
  /// The table grows with the pairs actually visited, not |A| x |B|.
  struct PairMemo {
    DenseIdTable Table;
    std::vector<uint64_t> Keys;
    void acquire(uint32_t Expected) {
      Table.reset(Expected);
      Keys.clear();
    }
    void release() {}

    static uint32_t hash(uint64_t Key) {
      return static_cast<uint32_t>((Key * 0x9E3779B97F4A7C15ull) >> 32);
    }
    uint32_t find(uint64_t Key, uint32_t Hash) const {
      return Table.find(Hash, [&](uint32_t Id) { return Keys[Id] == Key; });
    }
    uint32_t insert(uint64_t Key, uint32_t Hash) {
      Keys.push_back(Key);
      return Table.insert(Hash);
    }
  };

  LeasePool<DenseIdx> Maps;
  LeasePool<ValueMemo> Memos;
  LeasePool<ValueBuf> Bufs;
  LeasePool<PairMemo> Pairs;
};

} // namespace gaia

#endif // GAIA_PAT_PATSCRATCH_H
