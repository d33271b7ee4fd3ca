// Fixture: a frozen tier type with writable fields.
// Expect: freeze-fields on `Readers` and `Count`.

#include <atomic>
#include <cstdint>
#include <vector>

namespace gaia {

struct FrozenDemoTier {
  const std::vector<uint32_t> Ids; // ok: const
  std::atomic<uint64_t> Readers;   // BAD: worker-written, atomic or not
  uint64_t Count = 0;              // BAD: mutable field on a frozen tier

  uint32_t size() const { return static_cast<uint32_t>(Ids.size()); }
};

} // namespace gaia
