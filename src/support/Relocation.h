//===- support/Relocation.h - Id relocation across cache tiers ------------==//
///
/// \file
/// Explicit old-id -> new-id tables for the dense id spaces of the
/// caching stack (canonical graph ids, pf-set ids). A tier freeze maps
/// ids from the source space into the target space through one of
/// these tables instead of ad-hoc offset arithmetic. A *stacking* freeze
/// (a new tier built over an old one) preserves every id, so its table
/// is the identity, constructed via identity() so the intent is
/// auditable. A table built empty maps every id to the Dropped sentinel
/// until set() gives it an image.
///
/// The gaia-lint `relocation-remap` rule enforces the discipline: code
/// in src/support or src/runtime that builds a FrozenInternTier or
/// FrozenPfTier from an existing tier must route ids through this API
/// (raw `Id - Base` arithmetic across a tier boundary is banned there).
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_SUPPORT_RELOCATION_H
#define GAIA_SUPPORT_RELOCATION_H

#include <cassert>
#include <cstdint>
#include <vector>

namespace gaia {

/// Old-id -> new-id map over a dense id space [0, size()). Ids not
/// carried into the target space map to Dropped.
template <typename IdT> class RelocationTable {
public:
  /// Sentinel for an id with no image in the target space. Matches the
  /// invalid-id convention of the mapped spaces (InvalidCanon /
  /// InvalidPfSet are ~0u).
  static constexpr IdT Dropped = static_cast<IdT>(~IdT(0));

  RelocationTable() = default;
  /// A table over [0, N) with every id initially Dropped.
  explicit RelocationTable(size_t N) : Map(N, Dropped) {}

  /// The identity table over [0, N): the relocation of a stacking
  /// freeze, which preserves every id.
  static RelocationTable identity(size_t N) {
    RelocationTable T(N);
    for (size_t I = 0; I != N; ++I)
      T.Map[I] = static_cast<IdT>(I);
    return T;
  }

  void set(IdT Old, IdT New) {
    assert(Old < Map.size() && "relocation source out of range");
    Map[Old] = New;
  }

  /// The image of \p Old in the target space (Dropped if none).
  IdT map(IdT Old) const {
    assert(Old < Map.size() && "relocation source out of range");
    return Map[Old];
  }

  /// True if \p Old survives into the target space.
  bool live(IdT Old) const { return map(Old) != Dropped; }

  /// Size of the source id space.
  size_t size() const { return Map.size(); }

  /// Number of surviving ids.
  size_t liveCount() const {
    size_t N = 0;
    for (IdT V : Map)
      N += (V != Dropped);
    return N;
  }

private:
  std::vector<IdT> Map;
};

} // namespace gaia

#endif // GAIA_SUPPORT_RELOCATION_H
