//===- support/SmallPtrMap.h - Small pointer-keyed set --------------------==//
///
/// \file
/// A pointer set tuned for the GAIA dependency graph: most memo-table
/// entries have a handful of dependencies, a few hub entries (library
/// predicates everything calls) have hundreds. The set keeps its
/// elements in a flat vector — deterministic insertion-order iteration,
/// cache-friendly scans — and adds a hash index only once the element
/// count passes the inline threshold, so the common case stays
/// allocation-free per lookup and the hub case stays O(1) instead of the
/// quadratic linear-scan behavior the seed engine had.
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_SUPPORT_SMALLPTRMAP_H
#define GAIA_SUPPORT_SMALLPTRMAP_H

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace gaia {

/// Set of pointers: linear scan below \p N elements, hash-indexed above.
/// Iteration follows insertion order — except after `erase`, which
/// swap-pops and therefore perturbs the order (the engine's Dependents
/// sets are pure sets: the dirty-marking sweep over them is
/// order-independent). The index maps each element to its vector
/// position so erase stays O(1) for the hub entries with hundreds of
/// dependents.
template <typename T, unsigned N = 8> class SmallPtrSet {
public:
  /// Returns true if \p Key was newly inserted.
  bool insert(T *Key) {
    if (contains(Key))
      return false;
    Elems.push_back(Key);
    if (!Index.empty() || Elems.size() > N) {
      if (Index.empty())
        for (uint32_t I = 0; I != Elems.size(); ++I)
          Index.emplace(Elems[I], I);
      else
        Index.emplace(Key, static_cast<uint32_t>(Elems.size() - 1));
    }
    return true;
  }

  bool contains(T *Key) const {
    if (Index.empty()) {
      for (T *E : Elems)
        if (E == Key)
          return true;
      return false;
    }
    return Index.count(Key) != 0;
  }

  /// Removes \p Key if present (swap-pop). Returns true if it was.
  bool erase(T *Key) {
    uint32_t Pos;
    if (Index.empty()) {
      Pos = 0;
      while (Pos != Elems.size() && Elems[Pos] != Key)
        ++Pos;
      if (Pos == Elems.size())
        return false;
    } else {
      auto It = Index.find(Key);
      if (It == Index.end())
        return false;
      Pos = It->second;
      Index.erase(It);
    }
    if (Pos + 1 != Elems.size()) {
      Elems[Pos] = Elems.back();
      if (!Index.empty())
        Index[Elems[Pos]] = Pos;
    }
    Elems.pop_back();
    return true;
  }

  void clear() {
    Elems.clear();
    Index.clear();
  }

  bool empty() const { return Elems.empty(); }
  size_t size() const { return Elems.size(); }
  typename std::vector<T *>::const_iterator begin() const {
    return Elems.begin();
  }
  typename std::vector<T *>::const_iterator end() const {
    return Elems.end();
  }

private:
  std::vector<T *> Elems;
  /// Element -> vector position; engaged past N elements.
  std::unordered_map<T *, uint32_t> Index;
};

} // namespace gaia

#endif // GAIA_SUPPORT_SMALLPTRMAP_H
