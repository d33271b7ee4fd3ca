//===- support/DenseIdTable.h - Epoch-cleared table of dense ids ---------==//
///
/// \file
/// An open-addressing hash table that hands out dense ids (0, 1, 2, ...)
/// in insertion order and is emptied by opening a new epoch instead of
/// clearing its slots. Normalization keys determinized states and
/// partition signatures with it; the pattern domain keys its join/widen
/// pair memo with it (pat/PatScratch.h).
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_SUPPORT_DENSEIDTABLE_H
#define GAIA_SUPPORT_DENSEIDTABLE_H

#include <algorithm>
#include <cstdint>
#include <vector>

namespace gaia {

/// Open-addressing table of dense uint32 ids (0, 1, 2, ... in insertion
/// order) keyed by a caller-defined equality over a caller-computed
/// hash. The key data itself lives in the caller's pools; the table only
/// stores ids and their hashes. `reset` opens a new epoch instead of
/// clearing slots, and sizes the probe window to the expected id count,
/// so a small run touches a few cache lines of a table that may have
/// grown on an earlier large one.
class DenseIdTable {
public:
  static constexpr uint32_t NotFound = ~0u;

  /// Empties the table for about \p Expected ids.
  void reset(uint32_t Expected) {
    Count = 0;
    uint32_t Cap = 16;
    while (Cap < 2 * Expected)
      Cap *= 2;
    openEpoch(Cap);
  }

  uint32_t size() const { return Count; }

  /// The id whose key \p Eq accepts among those stored under \p Hash,
  /// or NotFound.
  template <typename EqFn> uint32_t find(uint32_t Hash, EqFn Eq) const {
    for (uint32_t I = Hash & Mask;; I = (I + 1) & Mask) {
      uint64_t S = Slots[I];
      if (static_cast<uint32_t>(S >> 32) != Epoch)
        return NotFound;
      uint32_t Id = static_cast<uint32_t>(S);
      if (Hashes[Id] == Hash && Eq(Id))
        return Id;
    }
  }

  /// Stores the next id (== size()) under \p Hash and returns it. The
  /// caller has checked with find() that its key is absent.
  uint32_t insert(uint32_t Hash) {
    uint32_t Id = Count++;
    if (Hashes.size() < Count)
      Hashes.resize(std::max<size_t>(Count, 2 * Hashes.size()));
    Hashes[Id] = Hash;
    if (2 * Count > Mask + 1) {
      openEpoch(2 * (Mask + 1));
      for (uint32_t J = 0; J != Count; ++J)
        place(J);
    } else {
      place(Id);
    }
    return Id;
  }

private:
  void openEpoch(uint32_t Cap) {
    if (Slots.size() < Cap)
      Slots.resize(Cap, 0);
    Mask = Cap - 1;
    if (++Epoch == 0) { // wrapped: stale tags could alias, wipe them
      std::fill(Slots.begin(), Slots.end(), 0);
      Epoch = 1;
    }
  }
  void place(uint32_t Id) {
    uint32_t I = Hashes[Id] & Mask;
    while (static_cast<uint32_t>(Slots[I] >> 32) == Epoch)
      I = (I + 1) & Mask;
    Slots[I] = (static_cast<uint64_t>(Epoch) << 32) | Id;
  }

  /// Slot = (epoch << 32) | id; a slot of an older epoch is empty.
  std::vector<uint64_t> Slots;
  std::vector<uint32_t> Hashes; ///< id -> hash
  uint32_t Epoch = 0;
  uint32_t Mask = 0;
  uint32_t Count = 0;
};

} // namespace gaia

#endif // GAIA_SUPPORT_DENSEIDTABLE_H
