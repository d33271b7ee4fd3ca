//===- perfbench/src/Trace.cpp ----------------------------------------------=//

#include "Trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

using namespace perfbench;

namespace {

const auto Epoch = std::chrono::steady_clock::now();

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

std::atomic<uint64_t> NextAnalysisId{1};

/// Every tracer ever handed out, kept alive past its thread so results
/// can be collected after the join.
std::mutex RegistryMutex;
std::vector<std::unique_ptr<Tracer>> Registry;

thread_local Tracer *Current = nullptr;

} // namespace

const char *perfbench::layerName(Layer L) {
  switch (L) {
  case Layer::Analysis:
    return "analysis";
  case Layer::SymtabCopy:
    return "runtime.symtab_copy";
  case Layer::Parse:
    return "prolog.parse";
  case Layer::Normalize:
    return "prolog.normalize";
  case Layer::Metrics:
    return "prolog.metrics";
  case Layer::Solve:
    return "gaia.solve";
  case Layer::Summaries:
    return "core.summaries";
  case Layer::Includes:
    return "typegraph.includes";
  case Layer::Meet:
    return "typegraph.meet";
  case Layer::Join:
    return "typegraph.join";
  case Layer::Widen:
    return "typegraph.widen";
  case Layer::Restrict:
    return "typegraph.restrict";
  case Layer::Construct:
    return "typegraph.construct";
  case Layer::Canon:
    return "typegraph.canon";
  case Layer::Count:
    break;
  }
  return "unknown";
}

void LayerTotals::add(const LayerTotals &O) {
  for (size_t M = 0; M != 2; ++M)
    for (size_t I = 0; I != NumLayers; ++I) {
      SelfNs[M][I] += O.SelfNs[M][I];
      Calls[M][I] += O.Calls[M][I];
    }
  AnalysisNs += O.AnalysisNs;
}

void Tracer::begin(Layer L) {
  if (L == Layer::Analysis)
    Analysis = NextAnalysisId.fetch_add(1, std::memory_order_relaxed);
  int32_t Index = -1;
  int64_t Now = nowNs();
  if (Spans.size() < Cap) {
    Index = static_cast<int32_t>(Spans.size());
    Span S;
    S.StartNs = Now;
    S.AnalysisId = Analysis;
    S.Parent = Stack.empty() ? -1 : Stack.back().Index;
    S.Kind = L;
    Spans.push_back(S);
  } else {
    ++Dropped;
  }
  Stack.push_back(Open{Now, 0, Index, L});
}

void Tracer::end(bool Miss) {
  int64_t Now = nowNs();
  Open O = Stack.back();
  Stack.pop_back();
  int64_t Dur = Now - O.StartNs;
  if (!Stack.empty())
    Stack.back().ChildNs += Dur;
  size_t K = static_cast<size_t>(O.Kind);
  Totals.SelfNs[Miss][K] += Dur - O.ChildNs;
  ++Totals.Calls[Miss][K];
  if (O.Kind == Layer::Analysis)
    Totals.AnalysisNs += Dur;
  if (O.Index >= 0) {
    Spans[O.Index].EndNs = Now;
    Spans[O.Index].Miss = Miss;
  }
}

Tracer *perfbench::threadTracer() { return Current; }

void perfbench::enableThreadTracing(size_t SpanCap) {
  auto T = std::make_unique<Tracer>(SpanCap);
  Current = T.get();
  std::lock_guard<std::mutex> L(RegistryMutex);
  Registry.push_back(std::move(T));
}

LayerTotals perfbench::collectTotals() {
  std::lock_guard<std::mutex> L(RegistryMutex);
  LayerTotals Sum;
  for (const auto &T : Registry)
    Sum.add(T->totals());
  return Sum;
}

uint64_t perfbench::collectDropped() {
  std::lock_guard<std::mutex> L(RegistryMutex);
  uint64_t Sum = 0;
  for (const auto &T : Registry)
    Sum += T->dropped();
  return Sum;
}

int64_t perfbench::writeSpans(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return -1;
  std::lock_guard<std::mutex> L(RegistryMutex);
  int64_t Written = 0;
  for (size_t T = 0; T != Registry.size(); ++T) {
    const std::vector<Span> &Spans = Registry[T]->spans();
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "{\"thread\":%zu,\"span\":%zu,\"parent\":%d,"
                   "\"analysis\":%llu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"miss\":%d}\n",
                   T, I, S.Parent,
                   static_cast<unsigned long long>(S.AnalysisId),
                   layerName(S.Kind), static_cast<long long>(S.StartNs),
                   static_cast<long long>(S.EndNs), S.Miss ? 1 : 0);
      ++Written;
    }
  }
  bool Ok = std::fclose(F) == 0;
  return Ok ? Written : -1;
}
