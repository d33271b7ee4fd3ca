// Fixture: classes that hold a *Scratch& data member are per-run views
// over the scratch, so their member functions are held to the same rule
// as scratch-taking functions. Expect: scratch-local-container on the
// local vector in `refine` (in-class body), on the local unordered_map in
// `relabel` (out-of-class definition) and on the local vector in `emit`
// (a class deriving from the view). `borrow` only binds a reference, and
// `Owner::tally` belongs to a class that owns its scratch by value, so
// neither is flagged.

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace gaia {

struct PartitionScratch {
  std::vector<uint32_t> Block;
};

class Refiner {
public:
  explicit Refiner(PartitionScratch &Scratch) : Scratch(Scratch) {}

  uint32_t refine() {
    std::vector<uint32_t> Next(Scratch.Block.size()); // BAD
    return static_cast<uint32_t>(Next.size());
  }

  uint32_t borrow() {
    std::vector<uint32_t> &Block = Scratch.Block; // ok: a reference
    return static_cast<uint32_t>(Block.size());
  }

  uint32_t relabel();

protected:
  PartitionScratch &Scratch;
};

uint32_t Refiner::relabel() {
  std::unordered_map<uint32_t, uint32_t> Ids; // BAD
  for (uint32_t B : Scratch.Block)
    Ids.emplace(B, static_cast<uint32_t>(Ids.size()));
  return static_cast<uint32_t>(Ids.size());
}

class Emitter : public Refiner {
public:
  using Refiner::Refiner;

  uint32_t emit() {
    std::vector<uint32_t> Out; // BAD: inherited scratch view
    Out.push_back(refine());
    return Out.back();
  }
};

class Owner {
public:
  uint32_t tally() {
    std::vector<uint32_t> Local{1, 2}; // ok: no scratch view here
    return static_cast<uint32_t>(Local.size() + Own.Block.size());
  }

private:
  PartitionScratch Own;
};

} // namespace gaia
