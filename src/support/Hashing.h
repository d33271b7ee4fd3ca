//===- support/Hashing.h - Hash combination utilities ---------------------==//
///
/// \file
/// Minimal hash-combining helpers used by memo tables across the analyzer.
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_SUPPORT_HASHING_H
#define GAIA_SUPPORT_HASHING_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace gaia {

/// Mixes \p Value into \p Seed (boost::hash_combine flavor).
inline void hashCombine(std::size_t &Seed, std::size_t Value) {
  Seed ^= Value + 0x9e3779b97f4a7c15ULL + (Seed << 6) + (Seed >> 2);
}

/// Hashes a pair of 32-bit ids; handy for memo tables keyed on vertex pairs.
struct PairHash {
  std::size_t operator()(const std::pair<uint32_t, uint32_t> &P) const {
    std::size_t Seed = std::hash<uint32_t>()(P.first);
    hashCombine(Seed, std::hash<uint32_t>()(P.second));
    return Seed;
  }
};

/// Hashes a vector of 32-bit ids (used for subset-construction states).
struct IdVectorHash {
  std::size_t operator()(const std::vector<uint32_t> &V) const {
    std::size_t Seed = V.size();
    for (uint32_t X : V)
      hashCombine(Seed, std::hash<uint32_t>()(X));
    return Seed;
  }
};

/// Hashes a vector of 64-bit words (used for serialized automaton keys).
struct U64VectorHash {
  std::size_t operator()(const std::vector<uint64_t> &V) const {
    std::size_t Seed = V.size();
    for (uint64_t X : V)
      hashCombine(Seed, std::hash<uint64_t>()(X));
    return Seed;
  }
};

} // namespace gaia

#endif // GAIA_SUPPORT_HASHING_H
