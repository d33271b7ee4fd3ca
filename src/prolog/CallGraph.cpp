//===- prolog/CallGraph.cpp -------------------------------------------------=//

#include "prolog/CallGraph.h"

#include <algorithm>
#include <set>

using namespace gaia;

const std::vector<FunctorId> CallGraph::Empty;

void gaia::forEachUserCall(const Term &Goal, const Program &Prog,
                           SymbolTable &Syms,
                           const std::function<void(FunctorId)> &OnCall) {
  if (!Goal.isCallable())
    return;
  const std::string &Name = Syms.name(Goal.name());
  if (Goal.arity() == 2 && (Name == "," || Name == ";" || Name == "->")) {
    forEachUserCall(Goal.args()[0], Prog, Syms, OnCall);
    forEachUserCall(Goal.args()[1], Prog, Syms, OnCall);
    return;
  }
  if (Goal.arity() == 1 &&
      (Name == "\\+" || Name == "not" || Name == "call")) {
    forEachUserCall(Goal.args()[0], Prog, Syms, OnCall);
    return;
  }
  FunctorId Fn = Goal.functor(Syms);
  if (Prog.defines(Fn))
    OnCall(Fn);
}

CallGraph::CallGraph(const Program &Prog, SymbolTable &Syms) {
  for (const Procedure &P : Prog.procedures()) {
    Preds.push_back(P.Fn);
    std::vector<FunctorId> &Out = Callees[P.Fn];
    std::set<FunctorId> Seen;
    for (const Clause &C : P.Clauses)
      for (const Term &Goal : C.Body)
        forEachUserCall(Goal, Prog, Syms, [&](FunctorId Fn) {
          if (Seen.insert(Fn).second)
            Out.push_back(Fn);
        });
  }
}

const std::vector<FunctorId> &CallGraph::callees(FunctorId Fn) const {
  auto It = Callees.find(Fn);
  return It == Callees.end() ? Empty : It->second;
}

std::vector<std::vector<FunctorId>>
CallGraph::stronglyConnectedComponents() const {
  // Tarjan's algorithm (iterative bookkeeping kept simple; programs are
  // small).
  std::vector<std::vector<FunctorId>> SCCs;
  std::unordered_map<FunctorId, uint32_t> IndexOf, LowLink;
  std::vector<FunctorId> Stack;
  std::set<FunctorId> OnStack;
  uint32_t NextIndex = 0;

  std::function<void(FunctorId)> StrongConnect = [&](FunctorId V) {
    IndexOf[V] = NextIndex;
    LowLink[V] = NextIndex;
    ++NextIndex;
    Stack.push_back(V);
    OnStack.insert(V);
    for (FunctorId W : callees(V)) {
      if (!IndexOf.count(W)) {
        StrongConnect(W);
        LowLink[V] = std::min(LowLink[V], LowLink[W]);
      } else if (OnStack.count(W)) {
        LowLink[V] = std::min(LowLink[V], IndexOf[W]);
      }
    }
    if (LowLink[V] == IndexOf[V]) {
      std::vector<FunctorId> SCC;
      while (true) {
        FunctorId W = Stack.back();
        Stack.pop_back();
        OnStack.erase(W);
        SCC.push_back(W);
        if (W == V)
          break;
      }
      SCCs.push_back(std::move(SCC));
    }
  };

  for (FunctorId P : Preds)
    if (!IndexOf.count(P))
      StrongConnect(P);
  return SCCs;
}
