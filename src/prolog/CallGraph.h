//===- prolog/CallGraph.h - Static call graph and its SCCs ----------------==//
///
/// \file
/// The static call graph over a program's user-defined predicates and
/// its Tarjan SCCs. prolog/Metrics.h is its client: the callee lists
/// give Table 1's static call-tree size, and the SCCs give Table 2's
/// recursion classification.
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_PROLOG_CALLGRAPH_H
#define GAIA_PROLOG_CALLGRAPH_H

#include "prolog/Program.h"

#include <functional>
#include <unordered_map>
#include <vector>

namespace gaia {

/// Walks a goal term, invoking \p OnCall for every leaf goal that calls
/// a user-defined predicate. Looks through ',', ';', '->', '\+', 'not'
/// and 'call', matching how the paper counts goals in control
/// constructs.
void forEachUserCall(const Term &Goal, const Program &Prog,
                     SymbolTable &Syms,
                     const std::function<void(FunctorId)> &OnCall);

/// The static call graph: for each procedure, the set of user-defined
/// predicates its bodies call (including calls under \+, ; and ->).
class CallGraph {
public:
  CallGraph(const Program &Prog, SymbolTable &Syms);

  const std::vector<FunctorId> &callees(FunctorId Fn) const;
  const std::vector<FunctorId> &predicates() const { return Preds; }

  /// Strongly connected components in reverse topological order
  /// (Tarjan). Each component lists its member predicates.
  std::vector<std::vector<FunctorId>> stronglyConnectedComponents() const;

private:
  std::vector<FunctorId> Preds;
  std::unordered_map<FunctorId, std::vector<FunctorId>> Callees;
  static const std::vector<FunctorId> Empty;
};

} // namespace gaia

#endif // GAIA_PROLOG_CALLGRAPH_H
