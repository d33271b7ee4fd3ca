//===- perfbench/src/TracedLeaf.h - Timed TypeLeaf adapter ----------------==//
///
/// \file
/// A leaf domain that forwards every static operation to gaia::TypeLeaf
/// and wraps each in a span on the calling thread's tracer. Engine and
/// PatSub instantiated over it run exactly the analysis TypeLeaf runs
/// (same context, same op cache), so results and fingerprints agree
/// with analyzeProgram while every leaf call is timed.
///
/// Each operation of the op cache is classified as a hit or a miss by
/// comparing OpCache::stats().Misses before and after the call. The
/// canonical key and the primed leaf constants both intern through the
/// op cache's interner; they are timed together as typegraph.canon.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACEDLEAF_H
#define PERFBENCH_TRACEDLEAF_H

#include "Trace.h"

#include "domains/TypeLeaf.h"

namespace perfbench {

/// Span around one op-cache operation, flagged with whether the cache
/// missed during it.
class OpSpan {
public:
  OpSpan(Layer L, const gaia::TypeLeaf::Context &C)
      : T(threadTracer()), Ops(C.Ops) {
    if (!T)
      return;
    MissesBefore = Ops ? Ops->stats().Misses : 0;
    T->begin(L);
  }
  ~OpSpan() {
    if (T)
      T->end(Ops && Ops->stats().Misses != MissesBefore);
  }
  OpSpan(const OpSpan &) = delete;
  OpSpan &operator=(const OpSpan &) = delete;

private:
  Tracer *T;
  const gaia::OpCache *Ops;
  uint64_t MissesBefore = 0;
};

struct TracedLeaf {
  using Base = gaia::TypeLeaf;
  using Value = Base::Value;
  using Context = Base::Context;

  static Value any(const Context &C) {
    ScopedSpan S(Layer::Canon);
    return Base::any(C);
  }
  static Value intValue(const Context &C) {
    ScopedSpan S(Layer::Canon);
    return Base::intValue(C);
  }
  static Value listValue(const Context &C) {
    ScopedSpan S(Layer::Canon);
    return Base::listValue(C);
  }
  static Value bottom(const Context &C) {
    ScopedSpan S(Layer::Canon);
    return Base::bottom(C);
  }

  static bool isBottom(const Context &C, const Value &V) {
    return Base::isBottom(C, V);
  }
  /// Same definition as TypeLeaf::isAny, routed through the timed ops.
  static bool isAny(const Context &C, const Value &V) {
    return includes(C, V, any(C));
  }

  static bool includes(const Context &C, const Value &Big,
                       const Value &Small) {
    OpSpan S(Layer::Includes, C);
    return Base::includes(C, Big, Small);
  }
  static Value meet(const Context &C, const Value &A, const Value &B) {
    OpSpan S(Layer::Meet, C);
    return Base::meet(C, A, B);
  }
  static Value join(const Context &C, const Value &A, const Value &B) {
    OpSpan S(Layer::Join, C);
    return Base::join(C, A, B);
  }
  static Value widen(const Context &C, const Value &Old, const Value &New) {
    OpSpan S(Layer::Widen, C);
    return Base::widen(C, Old, New);
  }
  static uint64_t canonKey(const Context &C, const Value &V) {
    ScopedSpan S(Layer::Canon);
    return Base::canonKey(C, V);
  }
  static bool restrictTo(const Context &C, const Value &V, gaia::FunctorId Fn,
                         std::vector<Value> &ArgsOut) {
    OpSpan S(Layer::Restrict, C);
    return Base::restrictTo(C, V, Fn, ArgsOut);
  }
  static Value construct(const Context &C, gaia::FunctorId Fn,
                         const std::vector<Value> &Args) {
    OpSpan S(Layer::Construct, C);
    return Base::construct(C, Fn, Args);
  }

  static gaia::TypeGraph toGraph(const Context &C, const Value &V) {
    return Base::toGraph(C, V);
  }
  static std::string print(const Context &C, const Value &V) {
    return Base::print(C, V);
  }
};

} // namespace perfbench

#endif // PERFBENCH_TRACEDLEAF_H
