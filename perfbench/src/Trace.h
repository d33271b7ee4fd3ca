//===- perfbench/src/Trace.h - In-memory spans for the traced run ---------==//
///
/// \file
/// Span recording for the benchmark's traced run. Spans are opened and
/// closed by the benchmark's own files around the calls it makes into
/// each layer of the analyzer (TracedAnalyze.cpp, TracedLeaf.h); the
/// analyzer itself is not instrumented.
///
/// Each thread owns one Tracer. A span records its layer, start and
/// end, the index of its parent span and the id of the analysis it
/// belongs to. Spans stay in memory (up to a cap per thread) and are
/// written out by writeSpans when the run ends. Self time — a span's
/// duration minus the part its child spans cover — is also accumulated
/// as spans close, so the per-layer totals cover every span, including
/// those past the cap.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The layer a span is charged to. The root span of one analysis is
/// Analysis; its self time is what no other layer claims.
enum class Layer : uint8_t {
  Analysis,
  SymtabCopy,
  Parse,
  Normalize,
  Metrics,
  Solve,
  Summaries,
  Includes,
  Meet,
  Join,
  Widen,
  Restrict,
  Construct,
  Canon,
  Count
};

constexpr size_t NumLayers = static_cast<size_t>(Layer::Count);

/// Span name as written to the trace file ("typegraph.join", ...).
const char *layerName(Layer L);

struct Span {
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  uint64_t AnalysisId = 0;
  /// Index of the parent in the same thread's span list; -1 for a root
  /// or when the parent was not recorded.
  int32_t Parent = -1;
  Layer Kind = Layer::Analysis;
  /// For type-graph operations: the op cache recorded a miss during the
  /// call (the result was computed, not looked up).
  bool Miss = false;
};

/// Self time and call count per layer, split by the span's Miss flag.
struct LayerTotals {
  std::array<std::array<int64_t, NumLayers>, 2> SelfNs = {};
  std::array<std::array<uint64_t, NumLayers>, 2> Calls = {};
  /// Total duration of the root spans.
  int64_t AnalysisNs = 0;

  int64_t selfNs(Layer L) const {
    return SelfNs[0][size_t(L)] + SelfNs[1][size_t(L)];
  }
  uint64_t calls(Layer L) const {
    return Calls[0][size_t(L)] + Calls[1][size_t(L)];
  }
  void add(const LayerTotals &O);
};

/// One thread's span recorder. Not thread-safe; every thread that
/// traces gets its own through enableThreadTracing.
class Tracer {
public:
  explicit Tracer(size_t SpanCap) : Cap(SpanCap) { Spans.reserve(Cap); }

  /// Opens a span. A Layer::Analysis span starts a new analysis id.
  void begin(Layer L);
  /// Closes the innermost open span.
  void end(bool Miss = false);

  const std::vector<Span> &spans() const { return Spans; }
  const LayerTotals &totals() const { return Totals; }
  /// Spans not kept in memory because the cap was reached.
  uint64_t dropped() const { return Dropped; }

private:
  struct Open {
    int64_t StartNs;
    int64_t ChildNs;
    int32_t Index;
    Layer Kind;
  };

  size_t Cap;
  std::vector<Span> Spans;
  std::vector<Open> Stack;
  LayerTotals Totals;
  uint64_t Analysis = 0;
  uint64_t Dropped = 0;
};

/// The calling thread's tracer, or null if this thread does not trace.
Tracer *threadTracer();

/// Gives the calling thread a tracer that keeps at most \p SpanCap spans
/// in memory. Tracers outlive their threads; collect results after the
/// traced threads have been joined.
void enableThreadTracing(size_t SpanCap);

/// Sum of every tracer's totals.
LayerTotals collectTotals();

/// Spans dropped by every tracer together.
uint64_t collectDropped();

/// Writes every recorded span as one JSON object per line. Returns the
/// number of spans written, or -1 if the file could not be written.
int64_t writeSpans(const std::string &Path);

/// RAII span on the calling thread's tracer (a no-op when it has none).
class ScopedSpan {
public:
  explicit ScopedSpan(Layer L) : T(threadTracer()) {
    if (T)
      T->begin(L);
  }
  ~ScopedSpan() {
    if (T)
      T->end();
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Tracer *T;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
