//===- pat/PatSub.h - The generic pattern domain Pat(R) -------------------==//
///
/// \file
/// The generic pattern domain of Cortesi, Le Charlier & Van Hentenryck
/// (POPL'94) as used in Section 5 of the paper. An abstract substitution
/// over n "slots" (clause variables or call arguments) consists of:
///
///   - a *same-value* component: each slot maps to a subterm index, and
///     two slots mapping to the same index are known to be equal;
///   - a *pattern* component: a subterm index may carry a frame
///     f(i1, ..., ik) naming its principal functor and the indices of
///     its arguments;
///   - an *R-component*: frameless (leaf) indices carry a value of the
///     generic leaf domain (type graphs for Pat(Type), the one-point
///     domain for the principal-functor baseline).
///
/// All operations the GAIA engine needs are provided: abstract
/// unification, projection (RESTRG), clause extension, call-result
/// integration (EXTG/EXTC), upper bound, widening, and ordering. The
/// interaction rule of Section 5 is implemented in joinOrWiden: when the
/// same subterm is bound to different functors in the two inputs, the
/// indices below are removed from Pat and replaced by an equivalent
/// value in the leaf domain.
///
/// The operations build no per-call maps or buffers: their index maps
/// and leaf-value buffers are leased from a per-thread PatScratch
/// (pat/PatScratch.h), and a frame's argument indices are stored inline
/// up to arity 4. What they allocate is the substitutions they return
/// and whatever the leaf operations allocate.
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_PAT_PATSUB_H
#define GAIA_PAT_PATSUB_H

#include "pat/PatScratch.h"
#include "prolog/Builtins.h"
#include "support/Debug.h"
#include "support/SmallVector.h"
#include "support/StringInterner.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <string>
#include <vector>

namespace gaia {

template <typename Leaf> class PatSub {
public:
  using Value = typename Leaf::Value;
  using Ctx = typename Leaf::Context;

  /// The substitution with \p NumSlots unconstrained slots.
  static PatSub top(const Ctx &C, uint32_t NumSlots) {
    PatSub S;
    S.reserve(NumSlots, NumSlots);
    for (uint32_t I = 0; I != NumSlots; ++I)
      S.Slots.push_back(S.newLeaf(Leaf::any(C)));
    return S;
  }

  /// The failed substitution.
  static PatSub bottom(uint32_t NumSlots) {
    PatSub S;
    S.IsBottom = true;
    S.Slots.assign(NumSlots, 0);
    return S;
  }

  bool isBottom() const { return IsBottom; }
  uint32_t numSlots() const { return static_cast<uint32_t>(Slots.size()); }

  //===--------------------------------------------------------------------//
  // Abstract unification.
  //===--------------------------------------------------------------------//

  /// Xa = Xb.
  void unifyVars(const Ctx &C, uint32_t SlotA, uint32_t SlotB) {
    if (IsBottom)
      return;
    unifyIndices(C, scratch(), find(Slots[SlotA]), find(Slots[SlotB]));
  }

  /// Xa = f(Xb1, ..., Xbk).
  void unifyFunc(const Ctx &C, uint32_t SlotA, FunctorId Fn,
                 const std::vector<uint32_t> &ArgSlots) {
    if (IsBottom)
      return;
    InlineArgs ArgIdx;
    for (uint32_t S : ArgSlots)
      ArgIdx.push_back(find(Slots[S]));
    imposeFrame(C, scratch(), find(Slots[SlotA]), Fn, ArgIdx);
  }

  /// Refines slot \p Slot with leaf value \p V (e.g. Int for is/2).
  void refineSlot(const Ctx &C, uint32_t Slot, const Value &V) {
    if (IsBottom)
      return;
    refineWithValue(C, scratch(), find(Slots[Slot]), V);
  }

  //===--------------------------------------------------------------------//
  // Projection and extension (RESTRG / EXTG / EXTC of the framework).
  //===--------------------------------------------------------------------//

  /// Projects onto \p OutSlots: the result has one slot per entry,
  /// preserving frames, same-value information and leaf values.
  PatSub project(const Ctx &, const std::vector<uint32_t> &OutSlots) const {
    if (IsBottom)
      return bottom(static_cast<uint32_t>(OutSlots.size()));
    Scratch &S = scratch();
    PatSub R;
    {
      // The result is kept (memo-table inputs are projections), so it is
      // sized to the subterms reachable from OutSlots.
      auto Seen = S.Maps.lease(numSubs());
      uint32_t Reachable = 0;
      for (uint32_t Slot : OutSlots)
        countReachable(find(Slots[Slot]), *Seen, Reachable);
      R.reserve(static_cast<uint32_t>(OutSlots.size()), Reachable);
    }
    auto Remap = S.Maps.lease(numSubs()); // my index -> new index
    for (uint32_t Slot : OutSlots)
      R.Slots.push_back(copyInto(R, find(Slots[Slot]), *Remap));
    return R;
  }

  /// Entry to a clause with \p NumVars variables whose first slots are
  /// the head arguments described by \p CallPat.
  static PatSub extendForClause(const Ctx &C, const PatSub &CallPat,
                                uint32_t NumVars) {
    assert(NumVars >= CallPat.numSlots() && "clause has fewer vars than "
                                            "head arguments");
    if (CallPat.IsBottom)
      return bottom(NumVars);
    PatSub R;
    R.reserve(NumVars, CallPat.numSubs() + NumVars - CallPat.numSlots());
    auto Remap = scratch().Maps.lease(CallPat.numSubs());
    for (uint32_t S = 0; S != CallPat.numSlots(); ++S)
      R.Slots.push_back(
          CallPat.copyInto(R, CallPat.find(CallPat.Slots[S]), *Remap));
    for (uint32_t V = CallPat.numSlots(); V != NumVars; ++V)
      R.Slots.push_back(R.newLeaf(Leaf::any(C)));
    return R;
  }

  /// Integrates the callee's output pattern \p Out for a call whose
  /// arguments were \p ArgSlots (EXTC): caller subterms are refined with
  /// the callee's frames, leaf values, and same-value equalities.
  void applyCallResult(const Ctx &C, const std::vector<uint32_t> &ArgSlots,
                       const PatSub &Out) {
    if (IsBottom)
      return;
    if (Out.IsBottom) {
      markBottom();
      return;
    }
    assert(ArgSlots.size() == Out.numSlots() && "call arity mismatch");
    Scratch &S = scratch();
    auto Memo = S.Maps.lease(Out.numSubs()); // out index -> my index
    for (size_t R = 0; R != ArgSlots.size(); ++R) {
      applyPair(C, S, find(Slots[ArgSlots[R]]), Out, Out.find(Out.Slots[R]),
                *Memo);
      if (IsBottom)
        return;
    }
  }

  //===--------------------------------------------------------------------//
  // Lattice operations.
  //===--------------------------------------------------------------------//

  /// Least upper bound (the UNION operation of GAIA).
  static PatSub join(const Ctx &C, const PatSub &A, const PatSub &B) {
    return joinOrWiden(C, A, B, /*Widen=*/false);
  }

  /// Widening (the WIDEN operation): the upper bound on Pat with the
  /// leaf upper bound replaced by the leaf widening, old value first.
  static PatSub widen(const Ctx &C, const PatSub &Old, const PatSub &New) {
    return joinOrWiden(C, Old, New, /*Widen=*/true);
  }

  /// Ordering: true if A's concretization is included in B's. May
  /// conservatively return false when A carries a leaf where B carries a
  /// frame.
  static bool leq(const Ctx &C, const PatSub &A, const PatSub &B) {
    if (A.IsBottom)
      return true;
    if (B.IsBottom)
      return false;
    assert(A.numSlots() == B.numSlots() && "slot count mismatch");
    Scratch &S = scratch();
    auto BToA = S.Maps.lease(B.numSubs());
    for (uint32_t Slot = 0; Slot != A.numSlots(); ++Slot)
      if (!leqPair(C, S, A, A.find(A.Slots[Slot]), B, B.find(B.Slots[Slot]),
                   *BToA))
        return false;
    return true;
  }

  static bool equal(const Ctx &C, const PatSub &A, const PatSub &B) {
    return leq(C, A, B) && leq(C, B, A);
  }

  //===--------------------------------------------------------------------//
  // Inspection.
  //===--------------------------------------------------------------------//

  /// The leaf-domain value describing slot \p Slot's whole subterm
  /// (frames are folded back via Leaf::construct).
  Value slotValue(const Ctx &C, uint32_t Slot) const {
    if (IsBottom)
      return Leaf::bottom(C);
    return foldValue(C, scratch(), find(Slots[Slot]));
  }

  /// Frame of slot \p Slot, if any: the principal functor.
  std::optional<FunctorId> slotFrame(uint32_t Slot) const {
    if (IsBottom)
      return std::nullopt;
    const Sub &S = Subs[find(Slots[Slot])];
    if (!S.HasFrame)
      return std::nullopt;
    return S.Fn;
  }

  /// True if slots \p A and \p B are known equal.
  bool sameValue(uint32_t A, uint32_t B) const {
    return !IsBottom && find(Slots[A]) == find(Slots[B]);
  }

  /// Canonical hash key: substitutions that are `equal` produce equal
  /// keys, so the engine's memo table can bucket entries by key and only
  /// run the full semantic comparison within a bucket. The key hashes
  /// the discovery-order renaming of the reachable subterm indices (the
  /// same-value partition), each frame's functor, and each leaf's
  /// canonical value key (Leaf::canonKey) — exactly the components
  /// `equal` compares.
  uint64_t canonKey(const Ctx &C) const {
    if (IsBottom)
      return 0xB0770Bu + numSlots();
    std::size_t Seed = numSlots();
    auto Number = scratch().Maps.lease(numSubs()); // rep -> discovery id
    uint32_t Next = 0;
    for (uint32_t S : Slots)
      keyIndex(C, S, *Number, Next, Seed);
    return Seed;
  }

  /// Renders the substitution for diagnostics: one line per slot.
  std::string print(const Ctx &C) const;

private:
  using Scratch = PatScratch<Value>;
  using ValueMemo = typename Scratch::ValueMemo;
  using PairMemo = typename Scratch::PairMemo;
  /// A frame's argument indices: inline up to arity 4, heap beyond.
  using InlineArgs = SmallVector<uint32_t, 4>;

  /// One subterm.
  struct Sub {
    bool HasFrame = false;
    FunctorId Fn = InvalidFunctor;
    InlineArgs FrameArgs;
    Value Prop; ///< valid iff !HasFrame
  };

  /// The calling thread's scratch. PatSub operations never call back
  /// into PatSub through the leaf domain, so one scratch per thread
  /// serves every substitution, engine and context of this leaf type.
  static Scratch &scratch() {
    static thread_local Scratch S;
    return S;
  }

  uint32_t numSubs() const { return static_cast<uint32_t>(Subs.size()); }

  void reserve(uint32_t NumSlots, uint32_t NumSubs) {
    Slots.reserve(NumSlots);
    Subs.reserve(NumSubs);
    Parent.reserve(NumSubs);
  }

  uint32_t newLeaf(Value V) {
    Subs.emplace_back();
    Subs.back().Prop = std::move(V);
    Parent.push_back(static_cast<uint32_t>(Subs.size() - 1));
    return static_cast<uint32_t>(Subs.size() - 1);
  }

  uint32_t newFrame(FunctorId Fn, const InlineArgs &Args) {
    Subs.emplace_back();
    Sub &S = Subs.back();
    S.HasFrame = true;
    S.Fn = Fn;
    S.FrameArgs = Args;
    Parent.push_back(static_cast<uint32_t>(Subs.size() - 1));
    return static_cast<uint32_t>(Subs.size() - 1);
  }

  uint32_t find(uint32_t I) const {
    while (Parent[I] != I)
      I = Parent[I];
    return I;
  }

  void markBottom() {
    IsBottom = true;
    Subs.clear();
    Parent.clear();
    for (uint32_t &S : Slots)
      S = 0;
  }

  /// Merges index \p J into \p I (both representatives).
  void link(uint32_t I, uint32_t J) {
    if (I != J)
      Parent[J] = I;
  }

  /// Abstract unification of two subterm indices.
  void unifyIndices(const Ctx &C, Scratch &S, uint32_t I, uint32_t J) {
    I = find(I);
    J = find(J);
    if (I == J || IsBottom)
      return;
    Sub &SI = Subs[I];
    Sub &SJ = Subs[J];
    if (SI.HasFrame && SJ.HasFrame) {
      if (SI.Fn != SJ.Fn) {
        markBottom();
        return;
      }
      InlineArgs ArgsI = SI.FrameArgs;
      InlineArgs ArgsJ = SJ.FrameArgs;
      link(I, J);
      for (size_t K = 0; K != ArgsI.size(); ++K) {
        unifyIndices(C, S, ArgsI[K], ArgsJ[K]);
        if (IsBottom)
          return;
      }
      return;
    }
    if (SI.HasFrame && !SJ.HasFrame) {
      // Push J's leaf value through I's frame.
      Value V = SJ.Prop;
      link(I, J);
      refineWithValue(C, S, I, V);
      return;
    }
    if (!SI.HasFrame && SJ.HasFrame) {
      Value V = SI.Prop;
      link(J, I);
      refineWithValue(C, S, J, V);
      return;
    }
    // Both leaves.
    Value M = Leaf::meet(C, SI.Prop, SJ.Prop);
    if (Leaf::isBottom(C, M)) {
      markBottom();
      return;
    }
    SI.Prop = std::move(M);
    link(I, J);
  }

  /// Ensures index \p I has frame \p Fn with argument indices \p ArgIdx.
  void imposeFrame(const Ctx &C, Scratch &S, uint32_t I, FunctorId Fn,
                   const InlineArgs &ArgIdx) {
    I = find(I);
    Sub &SI = Subs[I];
    if (SI.HasFrame) {
      if (SI.Fn != Fn) {
        markBottom();
        return;
      }
      InlineArgs Args = SI.FrameArgs;
      for (size_t K = 0; K != Args.size(); ++K) {
        unifyIndices(C, S, Args[K], ArgIdx[K]);
        if (IsBottom)
          return;
      }
      return;
    }
    // Leaf: split its value at Fn and refine the argument subterms.
    auto ArgVals = S.Bufs.lease();
    if (!Leaf::restrictTo(C, SI.Prop, Fn, ArgVals->Vals)) {
      markBottom();
      return;
    }
    SI.HasFrame = true;
    SI.Fn = Fn;
    SI.FrameArgs = ArgIdx;
    SI.Prop = Value();
    assert(ArgVals->Vals.size() == ArgIdx.size() &&
           "restrictTo arity mismatch");
    for (size_t K = 0; K != ArgIdx.size(); ++K) {
      refineWithValue(C, S, ArgIdx[K], ArgVals->Vals[K]);
      if (IsBottom)
        return;
    }
  }

  /// Intersects subterm \p I with leaf value \p V, pushing through
  /// frames. Frames are normally acyclic, but rational structures can
  /// arise from unifications like X = f(Y), X = Y; the depth budget cuts
  /// the recursion there (skipping a refinement is sound — it only loses
  /// precision).
  void refineWithValue(const Ctx &C, Scratch &S, uint32_t I, const Value &V,
                       unsigned Depth = 0) {
    constexpr unsigned MaxRefineDepth = 64;
    if (Depth > MaxRefineDepth)
      return;
    I = find(I);
    Sub &SI = Subs[I];
    if (!SI.HasFrame) {
      Value M = Leaf::meet(C, SI.Prop, V);
      if (Leaf::isBottom(C, M)) {
        markBottom();
        return;
      }
      SI.Prop = std::move(M);
      return;
    }
    auto ArgVals = S.Bufs.lease();
    if (!Leaf::restrictTo(C, V, SI.Fn, ArgVals->Vals)) {
      markBottom();
      return;
    }
    InlineArgs Args = SI.FrameArgs;
    for (size_t K = 0; K != Args.size(); ++K) {
      refineWithValue(C, S, Args[K], ArgVals->Vals[K], Depth + 1);
      if (IsBottom)
        return;
    }
  }

  /// canonKey helper: hashes the subterm \p I (frames recursively, leaves
  /// via Leaf::canonKey) under a discovery-order renaming of the indices.
  /// Rational frame cycles terminate because an index is numbered before
  /// its arguments are visited.
  void keyIndex(const Ctx &C, uint32_t I, DenseIdx &Number, uint32_t &Next,
                std::size_t &Seed) const {
    I = find(I);
    uint32_t Id = Number.get(I);
    if (Id != DenseIdx::Absent) {
      hashCombine(Seed, Id);
      return; // same-value reference to an already hashed subterm
    }
    Number.set(I, Next);
    hashCombine(Seed, Next++);
    const Sub &S = Subs[I];
    if (!S.HasFrame) {
      hashCombine(Seed, 0x1eafu);
      hashCombine(Seed, Leaf::canonKey(C, S.Prop));
      return;
    }
    hashCombine(Seed, 0xf7a3eu);
    hashCombine(Seed, S.Fn);
    for (uint32_t A : S.FrameArgs)
      keyIndex(C, A, Number, Next, Seed);
  }

  /// Counts the subterms reachable from \p I not yet marked in \p Seen.
  void countReachable(uint32_t I, DenseIdx &Seen, uint32_t &Count) const {
    I = find(I);
    if (Seen.get(I) != DenseIdx::Absent)
      return;
    Seen.set(I, 0);
    ++Count;
    if (Subs[I].HasFrame)
      for (uint32_t A : Subs[I].FrameArgs)
        countReachable(A, Seen, Count);
  }

  /// Copies the subterm \p I into \p R, preserving sharing via \p Remap.
  uint32_t copyInto(PatSub &R, uint32_t I, DenseIdx &Remap) const {
    I = find(I);
    uint32_t Known = Remap.get(I);
    if (Known != DenseIdx::Absent)
      return Known;
    const Sub &S = Subs[I];
    if (!S.HasFrame) {
      uint32_t N = R.newLeaf(S.Prop);
      Remap.set(I, N);
      return N;
    }
    uint32_t N = R.newFrame(S.Fn, {});
    Remap.set(I, N);
    InlineArgs Args;
    for (uint32_t A : S.FrameArgs)
      Args.push_back(copyInto(R, A, Remap));
    R.Subs[N].FrameArgs = Args;
    return N;
  }

  /// Folds subterm \p I back into a single leaf value, with a memo of its
  /// own (a fold's result at a rational cycle depends on where the fold
  /// entered it, so folds never share memo entries).
  Value foldValue(const Ctx &C, Scratch &S, uint32_t I) const {
    auto Memo = S.Memos.lease(numSubs());
    return termValue(C, S, I, *Memo);
  }

  /// foldValue's recursion. Rational cycles (possible after unifications
  /// like X = f(Y), X = Y) are cut with Any.
  Value termValue(const Ctx &C, Scratch &S, uint32_t I,
                  ValueMemo &Memo) const {
    I = find(I);
    uint32_t Pos = Memo.Pos.get(I);
    if (Pos == ValueMemo::InProgress)
      return Leaf::any(C); // rational cycle: over-approximate
    if (Pos != DenseIdx::Absent)
      return Memo.Vals[Pos];
    const Sub &Sb = Subs[I];
    if (!Sb.HasFrame) {
      Memo.Pos.set(I, static_cast<uint32_t>(Memo.Vals.size()));
      Memo.Vals.push_back(Sb.Prop);
      return Sb.Prop;
    }
    Memo.Pos.set(I, ValueMemo::InProgress);
    auto Args = S.Bufs.lease();
    for (uint32_t A : Sb.FrameArgs)
      Args->Vals.push_back(termValue(C, S, A, Memo));
    Value V = Leaf::construct(C, Sb.Fn, Args->Vals);
    Memo.Pos.set(I, static_cast<uint32_t>(Memo.Vals.size()));
    Memo.Vals.push_back(V);
    return V;
  }

  /// EXTC helper: imposes the callee subterm (\p Out, \p J) onto the
  /// caller subterm \p I. \p Memo carries out-index -> caller-index so
  /// the callee's same-value equalities transfer to the caller.
  void applyPair(const Ctx &C, Scratch &S, uint32_t I, const PatSub &Out,
                 uint32_t J, DenseIdx &Memo) {
    if (IsBottom)
      return;
    I = find(I);
    J = Out.find(J);
    uint32_t Seen = Memo.get(J);
    if (Seen != DenseIdx::Absent) {
      // The callee says this subterm equals a previously seen one.
      unifyIndices(C, S, I, Seen);
      return;
    }
    Memo.set(J, I);
    const Sub &SJ = Out.Subs[J];
    if (!SJ.HasFrame) {
      refineWithValue(C, S, I, SJ.Prop);
      return;
    }
    // Callee knows the frame. Ensure the caller has it too.
    uint32_t Irep = find(I);
    if (!Subs[Irep].HasFrame) {
      auto ArgVals = S.Bufs.lease();
      if (!Leaf::restrictTo(C, Subs[Irep].Prop, SJ.Fn, ArgVals->Vals)) {
        markBottom();
        return;
      }
      InlineArgs FreshArgs;
      for (Value &V : ArgVals->Vals)
        FreshArgs.push_back(newLeaf(std::move(V)));
      Sub &SI = Subs[Irep];
      SI.HasFrame = true;
      SI.Fn = SJ.Fn;
      SI.FrameArgs = FreshArgs;
      SI.Prop = Value();
    } else if (Subs[Irep].Fn != SJ.Fn) {
      markBottom();
      return;
    }
    InlineArgs MyArgs = Subs[Irep].FrameArgs;
    for (size_t K = 0; K != MyArgs.size(); ++K) {
      applyPair(C, S, MyArgs[K], Out, SJ.FrameArgs[K], Memo);
      if (IsBottom)
        return;
    }
  }

  /// Shared implementation of join and widen.
  static PatSub joinOrWiden(const Ctx &C, const PatSub &A, const PatSub &B,
                            bool Widen) {
    if (A.IsBottom)
      return B;
    if (B.IsBottom)
      return A;
    assert(A.numSlots() == B.numSlots() && "slot count mismatch");
    Scratch &S = scratch();
    // The result has at most one subterm per visited (A, B) pair; on the
    // analyzer's inputs that is about the smaller operand.
    uint32_t Expected = std::min(A.numSubs(), B.numSubs());
    PatSub R;
    R.reserve(A.numSlots(), Expected);
    auto Memo = S.Pairs.lease(Expected);
    for (uint32_t Slot = 0; Slot != A.numSlots(); ++Slot)
      R.Slots.push_back(combine(C, S, A, A.find(A.Slots[Slot]), B,
                                B.find(B.Slots[Slot]), R, *Memo, Widen));
    return R;
  }

  static uint32_t combine(const Ctx &C, Scratch &S, const PatSub &A,
                          uint32_t IA, const PatSub &B, uint32_t IB,
                          PatSub &R, PairMemo &Memo, bool Widen) {
    IA = A.find(IA);
    IB = B.find(IB);
    uint64_t Key = (static_cast<uint64_t>(IA) << 32) | IB;
    uint32_t Hash = PairMemo::hash(Key);
    uint32_t Known = Memo.find(Key, Hash);
    if (Known != DenseIdTable::NotFound)
      return Known;
    const Sub &SA = A.Subs[IA];
    const Sub &SB = B.Subs[IB];
    if (SA.HasFrame && SB.HasFrame && SA.Fn == SB.Fn) {
      uint32_t N = R.newFrame(SA.Fn, {});
      [[maybe_unused]] uint32_t Id = Memo.insert(Key, Hash);
      assert(Id == N && "pair ids follow result creation order");
      InlineArgs Args;
      for (size_t K = 0; K != SA.FrameArgs.size(); ++K)
        Args.push_back(combine(C, S, A, SA.FrameArgs[K], B, SB.FrameArgs[K],
                               R, Memo, Widen));
      R.Subs[N].FrameArgs = Args;
      return N;
    }
    // Frames disagree (or a leaf is involved): drop to the leaf domain.
    // This is exactly the Pat/Type interaction of Section 5: the indices
    // in the subtrees are replaced by an equivalent type graph.
    Value VA = A.foldValue(C, S, IA);
    Value VB = B.foldValue(C, S, IB);
    Value V = Widen ? Leaf::widen(C, VA, VB) : Leaf::join(C, VA, VB);
    uint32_t N = R.newLeaf(std::move(V));
    [[maybe_unused]] uint32_t Id = Memo.insert(Key, Hash);
    assert(Id == N && "pair ids follow result creation order");
    return N;
  }

  static bool leqPair(const Ctx &C, Scratch &S, const PatSub &A, uint32_t IA,
                      const PatSub &B, uint32_t IB, DenseIdx &BToA) {
    IA = A.find(IA);
    IB = B.find(IB);
    uint32_t Mapped = BToA.get(IB);
    if (Mapped != DenseIdx::Absent)
      return Mapped == IA; // B's same-value must hold in A
    BToA.set(IB, IA);
    const Sub &SB = B.Subs[IB];
    const Sub &SA = A.Subs[IA];
    if (!SB.HasFrame)
      return Leaf::includes(C, SB.Prop, A.foldValue(C, S, IA));
    if (!SA.HasFrame)
      return false; // conservative: A lacks structure B asserts
    if (SA.Fn != SB.Fn)
      return false;
    for (size_t K = 0; K != SA.FrameArgs.size(); ++K)
      if (!leqPair(C, S, A, SA.FrameArgs[K], B, SB.FrameArgs[K], BToA))
        return false;
    return true;
  }

  std::string printIndex(const Ctx &C, uint32_t I, unsigned Depth) const {
    I = find(I);
    const Sub &S = Subs[I];
    if (!S.HasFrame)
      return "#" + std::to_string(I) + ":" + Leaf::print(C, S.Prop);
    if (Depth > 4)
      return "#" + std::to_string(I) + ":...";
    std::string Out = "#" + std::to_string(I) + ":" +
                      C.Syms.functorName(S.Fn);
    if (!S.FrameArgs.empty()) {
      Out += "(";
      for (size_t K = 0; K != S.FrameArgs.size(); ++K) {
        if (K)
          Out += ",";
        Out += printIndex(C, S.FrameArgs[K], Depth + 1);
      }
      Out += ")";
    }
    return Out;
  }

  bool IsBottom = false;
  std::vector<uint32_t> Slots;
  std::vector<Sub> Subs;
  std::vector<uint32_t> Parent;
};

template <typename Leaf>
std::string PatSub<Leaf>::print(const Ctx &C) const {
  if (IsBottom)
    return "<bottom>\n";
  std::string Out;
  for (uint32_t S = 0; S != numSlots(); ++S) {
    Out += "X" + std::to_string(S) + " = " +
           printIndex(C, Slots[S], 0) + "\n";
  }
  return Out;
}

} // namespace gaia

#endif // GAIA_PAT_PATSUB_H
