//===- prolog/Metrics.cpp ---------------------------------------------------=//

#include "prolog/Metrics.h"

#include "support/Debug.h"

#include <algorithm>
#include <functional>
#include <set>

using namespace gaia;

SizeMetrics gaia::computeSizeMetrics(const Program &Prog,
                                     const NProgram &NProg,
                                     SymbolTable &Syms, FunctorId Entry) {
  CallGraph CG(Prog, Syms);
  return computeSizeMetrics(Prog, NProg, Syms, Entry, CG);
}

SizeMetrics gaia::computeSizeMetrics(const Program &Prog,
                                     const NProgram &NProg,
                                     SymbolTable &Syms, FunctorId Entry,
                                     const CallGraph &CG) {
  SizeMetrics M;
  M.NumProcedures = static_cast<uint32_t>(Prog.procedures().size());
  M.NumClauses = Prog.numClauses();
  M.NumProgramPoints = NProg.numProgramPoints();

  for (const Procedure &P : Prog.procedures())
    for (const Clause &C : P.Clauses)
      for (const Term &Goal : C.Body)
        forEachUserCall(Goal, Prog, Syms, [&](FunctorId) { ++M.NumGoals; });

  // Static call tree: unfold the call graph from the entry, cutting
  // calls back to predicates on the current path ([15]).
  constexpr uint64_t Budget = 1000000;
  std::set<FunctorId> Path;
  std::function<uint64_t(FunctorId)> TreeSize =
      [&](FunctorId P) -> uint64_t {
    uint64_t Size = 1;
    Path.insert(P);
    for (FunctorId Q : CG.callees(P)) {
      if (Path.count(Q))
        continue;
      Size += TreeSize(Q);
      if (Size > Budget)
        break;
    }
    Path.erase(P);
    return std::min(Size, Budget);
  };
  M.StaticCallTreeSize = Prog.defines(Entry) ? TreeSize(Entry) : 0;
  return M;
}

RecursionMetrics gaia::classifyRecursion(const Program &Prog,
                                         SymbolTable &Syms) {
  CallGraph CG(Prog, Syms);
  return classifyRecursion(Prog, Syms, CG);
}

RecursionMetrics gaia::classifyRecursion(const Program &Prog,
                                         SymbolTable &Syms,
                                         const CallGraph &CG) {
  RecursionMetrics M;

  // Predicates in SCCs of size > 1 are mutually recursive.
  std::set<FunctorId> Mutual;
  for (const std::vector<FunctorId> &SCC :
       CG.stronglyConnectedComponents())
    if (SCC.size() > 1)
      for (FunctorId P : SCC)
        Mutual.insert(P);

  for (const Procedure &P : Prog.procedures()) {
    if (Mutual.count(P.Fn)) {
      ++M.MutuallyRecursive;
      continue;
    }
    const std::vector<FunctorId> &Callees = CG.callees(P.Fn);
    bool SelfRecursive =
        std::find(Callees.begin(), Callees.end(), P.Fn) != Callees.end();
    if (!SelfRecursive) {
      ++M.NonRecursive;
      continue;
    }
    // Tail recursive iff every clause has at most one recursive call and
    // that call is the final goal of the clause.
    bool Tail = true;
    for (const Clause &C : P.Clauses) {
      uint32_t RecCalls = 0;
      for (const Term &Goal : C.Body)
        forEachUserCall(Goal, Prog, Syms, [&](FunctorId Fn) {
          if (Fn == P.Fn)
            ++RecCalls;
        });
      if (RecCalls == 0)
        continue;
      bool LastIsDirectRecursive =
          !C.Body.empty() && C.Body.back().isCallable() &&
          C.Body.back().functor(Syms) == P.Fn;
      if (RecCalls > 1 || !LastIsDirectRecursive) {
        Tail = false;
        break;
      }
    }
    if (Tail)
      ++M.TailRecursive;
    else
      ++M.LocallyRecursive;
  }
  return M;
}
