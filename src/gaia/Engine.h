//===- gaia/Engine.h - The GAIA top-down fixpoint algorithm ---------------==//
///
/// \file
/// The generic top-down fixpoint algorithm of Le Charlier & Van
/// Hentenryck (TOPLAS'94) as summarized in Section 4 of the paper: given
/// a normalized program and an abstract domain (Pat over some leaf), it
/// computes a small but sufficient subset of the least fixpoint (or a
/// postfixpoint) of the abstract semantics needed to answer a query.
///
/// The engine is polyvariant: each predicate may have several
/// (input pattern, output pattern) tuples. Memoization plus a dependency
/// graph avoid redundant computation. The widening is applied in the two
/// places Section 7.1 names:
///   1. on procedure *results* (every memo-table update), and
///   2. on procedure *calls*: a recursive descent that produces a new
///      input pattern for a predicate already on the call stack widens
///      it against the stacked pattern, bounding the set of input
///      patterns along any recursion.
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_ENGINE_H
#define GAIA_ENGINE_H

#include "pat/PatSub.h"
#include "prolog/Normalize.h"
#include "support/Cancellation.h"
#include "support/SmallPtrMap.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>

namespace gaia {

/// Engine behaviour knobs.
struct EngineOptions {
  /// If set, arithmetic comparisons (</2 etc.) refine both arguments to
  /// Int. Off by default: comparison arguments are *expressions* (1+2 <
  /// 4 succeeds), so the refinement is only sound for programs that
  /// compare evaluated numbers — which the paper's system, having no
  /// integer type at all, never assumed.
  bool RefineArithComparisons = false;
  /// Polyvariance cap. Section 9 observes that "the analyzer allocates
  /// a new input pattern whenever needed, which can be very demanding"
  /// and proposes "to limit the number of input patterns for each
  /// procedure by collapsing them" — this implements that remedy: once
  /// a predicate has this many memo entries, further input patterns are
  /// widened against the most recent entry, turning the pattern stream
  /// into a finite widening chain. 0 = unbounded (the paper's measured
  /// configuration, pathological on PR/RE-style programs).
  uint32_t MaxInputPatterns = 8;
  /// Defensive bound on both fixpoint loops (the local per-entry loop
  /// and the global stabilization loop in solve). The widening
  /// guarantees both terminate; if that guarantee is ever broken, the
  /// engine falls back to a top output for the offending entry instead
  /// of looping forever — or, as the pre-fix code did under NDEBUG,
  /// silently returning a dirty (non-converged, unsound-as-final)
  /// result. Aborts are counted in EngineStats::FixpointAborts.
  uint32_t MaxFixpointRounds = 10000;
  /// Optional cooperative stop condition (deadline and/or cancellation
  /// token; support/Cancellation.h), polled at the same per-round
  /// checkpoints the fixpoint budget uses. A tripped signal throws
  /// CancelledError out of solve(); the analyzer facade owns the
  /// handler. Null = never cancelled. Non-owning: the pointee must
  /// outlive the engine run.
  const CancelSignal *Cancel = nullptr;
};

/// Process-global GAIA_TRACE flag, computed once. Engines used to call
/// std::getenv per construction; a batch run constructs thousands of
/// engines across worker threads, and getenv is not guaranteed
/// thread-safe against the environment, so the lookup happens exactly
/// once (thread-safe static initialization).
inline bool engineTraceEnabled() {
  static const bool Enabled = std::getenv("GAIA_TRACE") != nullptr;
  return Enabled;
}

/// Statistics matching Table 3's measurements, plus the cache layer's
/// hit/miss counters.
struct EngineStats {
  /// Number of times a (predicate, input) entry was (re)analyzed.
  uint64_t ProcedureIterations = 0;
  /// Number of clause analyses.
  uint64_t ClauseIterations = 0;
  /// Number of memo-table entries created (polyvariance).
  uint64_t InputPatterns = 0;
  /// Wall-clock seconds inside solve().
  double SolveSeconds = 0;
  /// Memo-table lookups, and how many entries the hashed lookup actually
  /// compared with the full Sub::equal (the pre-hash-consing code
  /// compared every same-predicate entry on every lookup).
  uint64_t EntryLookups = 0;
  uint64_t EntryCompares = 0;
  /// Times a fixpoint loop exhausted EngineOptions::MaxFixpointRounds
  /// and fell back to a top output. Nonzero means the result is a sound
  /// over-approximation but the analysis did not converge normally.
  uint64_t FixpointAborts = 0;
  /// Graph-operation cache counters, filled in by the analyzer from the
  /// OpCache layer (zero when the leaf domain runs uncached).
  uint64_t OpCacheHits = 0;
  uint64_t OpCacheMisses = 0;
  /// Operation results and intern lookups resolved in the batch
  /// runtime's frozen shared tier (zero for cold runs; see
  /// runtime/SharedCache.h).
  uint64_t OpCacheSharedHits = 0;
  uint64_t InternSharedHits = 0;
  /// Distinct graph languages hash-consed by the interner (shared tier
  /// plus the run's private delta).
  uint64_t InternedGraphs = 0;
  /// Interner slow-path outcomes (support/GraphInterner.h InternStats):
  /// structural hits, new shapes of known languages, new languages, and
  /// the minimal automata built to key the fallback map (zero while
  /// every interned graph is certified).
  uint64_t InternStructHits = 0;
  uint64_t InternAutoHits = 0;
  uint64_t InternMisses = 0;
  uint64_t InternKeysBuilt = 0;
  /// Pf-set interner counters (support/PfSetInterner.h), filled in by
  /// the analyzer from the widening scratch (zero when uncached).
  uint64_t PfSetHits = 0;
  uint64_t PfSetMisses = 0;
  uint64_t PfSetSharedHits = 0;
  double pfSetHitRate() const {
    uint64_t Total = PfSetHits + PfSetMisses + PfSetSharedHits;
    return Total ? double(PfSetHits + PfSetSharedHits) / double(Total) : 0.0;
  }
};

template <typename Leaf> class Engine {
public:
  using Sub = PatSub<Leaf>;
  using Ctx = typename Leaf::Context;

  /// One memo-table tuple (Bin, p, Bout), viewing the engine's entry:
  /// valid while the engine lives and solve() is not running.
  struct Tuple {
    FunctorId Pred;
    const Sub &In;
    const Sub &Out;
  };

  Engine(const NProgram &Prog, const Ctx &C,
         const EngineOptions &Opts = {})
      : Prog(Prog), C(C), Opts(Opts), Trace(engineTraceEnabled()) {}

  /// Analyzes the query \p Pred with input pattern \p In (one slot per
  /// argument) and returns the output pattern.
  Sub solve(FunctorId Pred, const Sub &In);

  const EngineStats &stats() const { return Stats; }

  /// All memo-table tuples, for reporting and tag extraction.
  std::vector<Tuple> tuples() const {
    std::vector<Tuple> Result;
    Result.reserve(Entries.size());
    for (const auto &E : Entries)
      Result.push_back(Tuple{E->Pred, E->In, E->Out});
    return Result;
  }

private:
  struct Entry {
    FunctorId Pred = InvalidFunctor;
    Sub In = Sub::bottom(0);
    Sub Out = Sub::bottom(0);
    bool Dirty = true;
    bool OnStack = false;
    bool UsedRecursively = false;
    /// Callees read this pass. Hub predicates can accumulate hundreds
    /// of dependencies; the hybrid set keeps recordDep O(1) instead of a
    /// per-call linear scan.
    SmallPtrSet<Entry> Deps;
    /// Entries whose last pass used this one (reverse of Deps).
    SmallPtrSet<Entry> Dependents;
  };

  Entry *solveCall(FunctorId Pred, Sub In, Entry *Caller);
  void compute(Entry *E);
  Sub analyzeClause(const NClause &Cl, const Sub &In, Entry *E);
  void invalidateDependents(Entry *Changed);
  Entry *findEntry(FunctorId Pred, const Sub &In);
  uint64_t entryKey(FunctorId Pred, const Sub &In) const;
  void recordDep(Entry *From, Entry *To);
  void abortFixpoint(Entry *E);

  const NProgram &Prog;
  Ctx C;
  EngineOptions Opts;
  bool Trace = false;
  std::vector<std::unique_ptr<Entry>> Entries;
  /// Per-predicate entry buckets (creation order preserved; drives the
  /// polyvariance cap).
  std::unordered_map<FunctorId, std::vector<Entry *>> ByPred;
  /// Hashed memo-table index: (predicate, canonical input key) buckets.
  /// Lookup verifies candidates with Sub::equal, so a hash collision
  /// costs a comparison, never correctness.
  std::unordered_map<uint64_t, std::vector<Entry *>> ByKey;
  std::vector<Entry *> Stack;
  EngineStats Stats;
};

//===----------------------------------------------------------------------===//
// Implementation (template).
//===----------------------------------------------------------------------===//

template <typename Leaf>
uint64_t Engine<Leaf>::entryKey(FunctorId Pred, const Sub &In) const {
  std::size_t Seed = Pred;
  hashCombine(Seed, In.canonKey(C));
  return Seed;
}

template <typename Leaf>
typename Engine<Leaf>::Entry *Engine<Leaf>::findEntry(FunctorId Pred,
                                                      const Sub &In) {
  ++Stats.EntryLookups;
  auto It = ByKey.find(entryKey(Pred, In));
  if (It == ByKey.end())
    return nullptr;
  for (Entry *E : It->second) {
    if (E->Pred != Pred)
      continue;
    ++Stats.EntryCompares;
    if (Sub::equal(C, E->In, In))
      return E;
  }
  return nullptr;
}

template <typename Leaf>
void Engine<Leaf>::recordDep(Entry *From, Entry *To) {
  From->Deps.insert(To);
  To->Dependents.insert(From);
}

template <typename Leaf> void Engine<Leaf>::abortFixpoint(Entry *E) {
  // Fixpoint budget exhausted: the only sound terminating answer is top.
  // This path must exist in release builds — returning the current
  // (dirty) approximation as if final would be unsound.
  ++Stats.FixpointAborts;
  E->Out = Sub::top(C, E->In.numSlots());
  invalidateDependents(E);
  E->Dirty = false;
}

template <typename Leaf>
typename Engine<Leaf>::Sub Engine<Leaf>::solve(FunctorId Pred,
                                               const Sub &In) {
  auto Start = std::chrono::steady_clock::now();
  Entry *E = solveCall(Pred, In, nullptr);
  // Iterate to a global fixpoint: recursive dependencies may have left
  // dirty entries; recompute until the query entry is clean.
  unsigned Rounds = 0;
  while (E->Dirty) {
    if (Opts.Cancel)
      Opts.Cancel->poll();
    if (Rounds++ >= Opts.MaxFixpointRounds) {
      abortFixpoint(E);
      break;
    }
    compute(E);
  }
  Stats.SolveSeconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    Start)
          .count();
  return E->Out;
}

template <typename Leaf>
typename Engine<Leaf>::Entry *
Engine<Leaf>::solveCall(FunctorId Pred, Sub In, Entry *Caller) {
  // Input widening against the innermost stacked pattern of the same
  // predicate: bounds the input patterns produced along a recursion.
  // A recursive call below the stacked pattern reuses it outright
  // (sound by monotonicity); otherwise the call pattern is widened
  // against it, so the chain of patterns along any recursion is a
  // widening chain and therefore finite.
  for (auto It = Stack.rbegin(), End = Stack.rend(); It != End; ++It) {
    Entry *SE = *It;
    if (SE->Pred != Pred)
      continue;
    if (Sub::leq(C, In, SE->In))
      In = SE->In;
    else
      In = Sub::widen(C, SE->In, In);
    break;
  }

  // Polyvariance cap: collapse further patterns into a widening chain
  // anchored at the predicate's most recent entry.
  if (Opts.MaxInputPatterns != 0) {
    auto It = ByPred.find(Pred);
    if (It != ByPred.end() && It->second.size() >= Opts.MaxInputPatterns) {
      Entry *Last = It->second.back();
      if (Sub::leq(C, In, Last->In))
        In = Last->In;
      else
        In = Sub::widen(C, Last->In, In);
    }
  }

  Entry *E = findEntry(Pred, In);
  if (!E) {
    Entries.push_back(std::make_unique<Entry>());
    E = Entries.back().get();
    E->Pred = Pred;
    E->In = std::move(In);
    E->Out = Sub::bottom(E->In.numSlots());
    ByPred[Pred].push_back(E);
    ByKey[entryKey(Pred, E->In)].push_back(E);
    ++Stats.InputPatterns;
    if (Trace)
      std::fprintf(stderr, "[gaia] new input pattern for %s (from %s):\n%s",
                   C.Syms.functorString(Pred).c_str(),
                   Caller ? C.Syms.functorString(Caller->Pred).c_str()
                          : "<query>",
                   E->In.print(C).c_str());
  }

  if (E->OnStack) {
    E->UsedRecursively = true;
    if (Caller)
      recordDep(Caller, E);
    return E; // current approximation
  }
  if (E->Dirty) // a new entry starts dirty
    compute(E);
  if (Caller)
    recordDep(Caller, E);
  return E;
}

template <typename Leaf> void Engine<Leaf>::compute(Entry *E) {
  const NProcedure *Proc = Prog.find(E->Pred);
  assert(Proc && "solveCall must only be used for defined predicates");
  E->OnStack = true;
  Stack.push_back(E);

  unsigned LocalRounds = 0;
  while (true) {
    if (Opts.Cancel)
      Opts.Cancel->poll();
    E->Dirty = false;
    E->UsedRecursively = false;
    // Unlink the reverse edges of the previous pass before rebuilding
    // Deps: a callee this pass no longer reads must not keep E in its
    // Dependents set, or its future changes would keep spuriously
    // dirtying E (and recomputing it) for the rest of the run. Dropped dependencies are common — polyvariant entries
    // migrate as call patterns evolve along a recursion.
    for (Entry *Dep : E->Deps)
      Dep->Dependents.erase(E);
    E->Deps.clear();
    ++Stats.ProcedureIterations;
    ++LocalRounds;
    if (Trace)
      std::fprintf(stderr,
                   "[gaia] pass %llu: %s (round %u, stack %zu, "
                   "entries %zu)\n",
                   static_cast<unsigned long long>(
                       Stats.ProcedureIterations),
                   C.Syms.functorString(E->Pred).c_str(), LocalRounds,
                   Stack.size(), Entries.size());

    Sub NewOut = Sub::bottom(E->In.numSlots());
    for (const NClause &Cl : Proc->Clauses) {
      ++Stats.ClauseIterations;
      Sub ClauseOut = analyzeClause(Cl, E->In, E);
      if (!ClauseOut.isBottom())
        NewOut = Sub::join(C, NewOut, ClauseOut);
    }

    Sub Widened = Sub::widen(C, E->Out, NewOut);
    bool Changed = !Sub::leq(C, Widened, E->Out);
    if (Changed) {
      E->Out = std::move(Widened);
      invalidateDependents(E);
    }
    // Repeat while this entry participates in recursion and its result
    // is still in flux, or a callee's change invalidated this pass.
    bool Again = (Changed && E->UsedRecursively) || E->Dirty;
    if (!Again)
      break;
    if (LocalRounds >= Opts.MaxFixpointRounds) {
      abortFixpoint(E);
      break;
    }
  }

  Stack.pop_back();
  E->OnStack = false;
}

template <typename Leaf>
typename Engine<Leaf>::Sub
Engine<Leaf>::analyzeClause(const NClause &Cl, const Sub &In, Entry *E) {
  Sub B = Sub::extendForClause(C, In, Cl.NumVars);
  for (const NOp &Op : Cl.Ops) {
    if (B.isBottom())
      break;
    switch (Op.K) {
    case NOp::Kind::UnifyVar:
      B.unifyVars(C, Op.A, Op.B);
      break;
    case NOp::Kind::UnifyFunc:
      B.unifyFunc(C, Op.A, Op.Fn, Op.Args);
      break;
    case NOp::Kind::Call: {
      Sub CallIn = B.project(C, Op.Args);
      Entry *Callee = solveCall(Op.Fn, std::move(CallIn), E);
      B.applyCallResult(C, Op.Args, Callee->Out);
      break;
    }
    case NOp::Kind::Builtin:
      switch (Op.BK) {
      case BuiltinKind::Fail:
        B = Sub::bottom(B.numSlots());
        break;
      case BuiltinKind::Is:
        B.refineSlot(C, Op.Args[0], Leaf::intValue(C));
        break;
      case BuiltinKind::ArithTest:
        if (Opts.RefineArithComparisons) {
          B.refineSlot(C, Op.Args[0], Leaf::intValue(C));
          if (!B.isBottom())
            B.refineSlot(C, Op.Args[1], Leaf::intValue(C));
        }
        break;
      case BuiltinKind::TypeInt:
        B.refineSlot(C, Op.Args[0], Leaf::intValue(C));
        break;
      case BuiltinKind::Length:
        B.refineSlot(C, Op.Args[0], Leaf::listValue(C));
        if (!B.isBottom())
          B.refineSlot(C, Op.Args[1], Leaf::intValue(C));
        break;
      case BuiltinKind::Arg:
        B.refineSlot(C, Op.Args[0], Leaf::intValue(C));
        break;
      case BuiltinKind::True:
      case BuiltinKind::TypeTest:
      case BuiltinKind::NotEq:
      case BuiltinKind::Opaque:
      case BuiltinKind::Unify:
      case BuiltinKind::TermEq:
      case BuiltinKind::None:
        break; // no refinement (sound)
      }
      break;
    }
  }
  if (B.isBottom())
    return Sub::bottom(Cl.Arity);
  // Project the clause state onto the head arguments.
  std::vector<uint32_t> HeadSlots(Cl.Arity);
  for (uint32_t I = 0; I != Cl.Arity; ++I)
    HeadSlots[I] = I;
  return B.project(C, HeadSlots);
}

template <typename Leaf>
void Engine<Leaf>::invalidateDependents(Entry *Changed) {
  // Mark (transitively) every entry that used Changed. Transitive
  // dependents must be marked even though the intermediate entry has
  // not changed yet: recomputing it may change it, so anything built on
  // it is suspect.
  std::vector<Entry *> Work{Changed};
  while (!Work.empty()) {
    Entry *X = Work.back();
    Work.pop_back();
    for (Entry *F : X->Dependents) {
      if (F->Dirty || F == X)
        continue;
      F->Dirty = true;
      Work.push_back(F);
    }
  }
}

} // namespace gaia

#endif // GAIA_ENGINE_H
