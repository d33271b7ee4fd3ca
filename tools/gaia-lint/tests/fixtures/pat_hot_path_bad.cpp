// Fixture: pattern-domain code as it would sit under src/pat/. The
// runner copies it into a src/pat/ directory and lints it with the
// default hot paths (no --hot-path). Expect: banned-container on the
// std::map in `canonNumber` and scratch-local-container on the local
// vector in `copyArgs`; `inlineArgs` keeps its copy in inline storage
// and must not be flagged. Linted from any other directory, the file
// is clean.

#include <cstdint>
#include <map>
#include <vector>

namespace gaia {

struct PatScratch {
  std::vector<uint32_t> Remap;
};

struct InlineArgs {
  uint32_t Ids[4];
  uint32_t Count = 0;
};

uint32_t canonNumber(uint32_t I) {
  std::map<uint32_t, uint32_t> Number; // BAD: ordered map on a hot path
  Number.emplace(I, 0);
  return static_cast<uint32_t>(Number.size());
}

uint32_t copyArgs(PatScratch &S, uint32_t I) {
  std::vector<uint32_t> Args; // BAD: per-call allocation beside a scratch
  Args.push_back(I);
  S.Remap.push_back(Args.back());
  return static_cast<uint32_t>(S.Remap.size());
}

uint32_t inlineArgs(PatScratch &S, uint32_t I) {
  InlineArgs Args; // ok: inline storage, no allocation
  Args.Ids[Args.Count++] = I;
  S.Remap.push_back(Args.Ids[0]);
  return static_cast<uint32_t>(S.Remap.size());
}

} // namespace gaia
