//===- typegraph/Widening.cpp ----------------------------------------------=//
///
/// Scratch-based implementation of the Section 7 widening. The transform
/// loop runs entirely on caller-owned WideningScratch buffers:
///
///   - the old graph's topology (depths, parents, or-ancestors, interned
///     pf-set ids) comes from its per-graph cache and is computed once
///     per distinct value, not once per transform;
///   - the evolving graph's topology lives in reusable scratch arrays;
///   - pf-set comparisons are PfSetInterner id compares / mask-guarded
///     subset walks, never vector materializations;
///   - transforms mutate the graph in place (append + edge redirection)
///     instead of copy + compact per step — compaction happens once, at
///     the final normalization, which renumbers canonically anyway. All
///     order-sensitive decisions are made on BFS positions, which are
///     invariant under compaction, so the transform sequence is
///     bit-identical to the historic copy-per-step implementation;
///   - the correspondence relation is recomputed by one full walk after
///     every transform, as the paper does. The graphs are small (no
///     Section 9 program runs more than 109 walks), so a walk costs
///     about what tracking the regions a transform left untouched would.
///
//===----------------------------------------------------------------------===//

#include "typegraph/Widening.h"

#include "support/Debug.h"
#include "support/Hashing.h"
#include "typegraph/GraphOps.h"

#include <algorithm>

using namespace gaia;

namespace {

/// Splices \p Rep in place of the subtree rooted at or-vertex \p Va.
/// Implementation of detail::graftReplace; see the header comment there
/// for why every incoming edge must be redirected. (The widening loop
/// itself commits replacements in place; this copy-based variant remains
/// the exported, independently testable specification of the edit.)
static TypeGraph graftReplaceImpl(const TypeGraph &G, NodeId Va,
                                  const TypeGraph &Rep,
                                  const TypeGraph::Topology &Topo) {
  TypeGraph Out = G; // copy; ids are preserved
  NodeId RepRoot = copySubgraph(Rep, Rep.root(), Out);
  if (Va == G.root()) {
    Out.setRoot(RepRoot);
    return Out.compact();
  }
  assert(Topo.Parent[Va] != InvalidNode &&
         "non-root vertex must have a parent");
  (void)Topo; // assert-only under NDEBUG
  // Redirect every edge into Va. Besides the tree-parent edge, Va may
  // have incoming back/cross edges (cycle introduction creates them);
  // leaving any of them in place would keep the replaced subtree alive.
  uint32_t Old = G.numNodes(); // freshly copied Rep nodes need no rewrite
  for (NodeId V = 0; V != Old; ++V)
    for (NodeId &S : Out.node(V).Succs)
      if (S == Va)
        S = RepRoot;
  return Out.compact();
}

/// One widening run: Gold fixed, Gn evolving under the transform rules.
class WidenRun {
public:
  WidenRun(const TypeGraph &Go, TypeGraph &Gn, const SymbolTable &Syms,
           const WideningOptions &Opts, WideningStats *Stats,
           NormalizeScratch *NScratch, WideningScratch &W)
      : Go(Go), Gn(Gn), CGn(Gn), Syms(Syms), Opts(Opts), Stats(Stats),
        NScratch(NScratch), W(W), TopoO(Go.topology(Syms, W.PfSets)) {}

  /// One pass of the widen() loop: recompute the clash relation, then
  /// try the cycle introduction rule and the replacement rule. Returns
  /// true if a transformation was applied (mutating Gn).
  bool applyOneTransform() {
    // Gn's topology, through the same helper that builds the per-graph
    // caches.
    Gn.fillTopology(Syms, W.PfSets, W.GnTopo, W.BfsPos, W.OrAnc, W.Pf);
    clashWalk();
    if (W.Clashes.empty())
      return false;
    return cycleIntroduction() || replacement();
  }

private:
  //===--------------------------------------------------------------------//
  // The correspondence walk (Definitions 7.1-7.3).
  //===--------------------------------------------------------------------//

  /// Walks the correspondence relation of Definition 7.1 from the roots,
  /// collecting widening clashes into W.Clashes (sorted shallow-first in
  /// the canonical BFS order).
  void clashWalk() {
    W.WalkSeen.begin();
    W.Pairs.clear();
    W.Clashes.clear();
    auto Child = [&](NodeId Vo, NodeId Vn) {
      if (W.WalkSeen.insert(Vo, Vn).second)
        W.Pairs.emplace_back(Vo, Vn);
    };
    Child(Go.root(), Gn.root());
    for (uint32_t I = 0; I != W.Pairs.size(); ++I) {
      auto [Vo, Vn] = W.Pairs[I];
      const TGNode &No = Go.node(Vo);
      const TGNode &Nn = CGn.node(Vn);
      if (No.Kind == NodeKind::Func && Nn.Kind == NodeKind::Func) {
        assert(No.Fn == Nn.Fn && "corresponding functor vertices must agree");
        for (size_t J = 0, E = No.Succs.size(); J != E; ++J)
          Child(No.Succs[J], Nn.Succs[J]);
        continue;
      }
      if (No.Kind != NodeKind::Or || Nn.Kind != NodeKind::Or)
        continue; // leaf pairs carry no information
      bool SameDepth = TopoO.Topo.Depth[Vo] == W.GnTopo.Depth[Vn];
      PfSetId PfO = TopoO.Pf[Vo];
      PfSetId PfN = W.Pf[Vn];
      if (SameDepth && PfO == PfN) {
        // Same pf-set plus sorted successors => positional
        // correspondence. Beware Isolated-Any: both must be plain
        // alternatives.
        if (No.Succs.size() == Nn.Succs.size())
          for (size_t J = 0, E = No.Succs.size(); J != E; ++J)
            Child(No.Succs[J], Nn.Succs[J]);
        continue;
      }
      // Topological clash; keep it if it is a widening clash (Def 7.3).
      if (W.PfSets.isEmpty(PfN))
        continue;
      bool PfClash = PfO != PfN && SameDepth;
      bool DepthClash = TopoO.Topo.Depth[Vo] < W.GnTopo.Depth[Vn];
      if (PfClash || DepthClash)
        W.Clashes.emplace_back(Vo, Vn);
    }
    // Deterministic processing order: shallow clash vertices first. BFS
    // position order equals the (depth, compacted id) order the historic
    // implementation sorted by — compact() numbers by BFS position.
    std::sort(W.Clashes.begin(), W.Clashes.end(),
              [&](const std::pair<NodeId, NodeId> &A,
                  const std::pair<NodeId, NodeId> &B) {
                if (A.second != B.second)
                  return W.BfsPos[A.second] < W.BfsPos[B.second];
                return A.first < B.first;
              });
    if (Stats) {
      ++Stats->ClashWalks;
      Stats->Clashes += W.Clashes.size();
    }
  }

  //===--------------------------------------------------------------------//
  // The transform rules (Definitions 7.4 and 7.5).
  //===--------------------------------------------------------------------//

  /// Cycle introduction rule (Definition 7.4).
  bool cycleIntroduction() {
    for (auto [Vo, Vn] : W.Clashes) {
      if (Vn == Gn.root())
        continue; // no incoming edge to redirect
      PfSetId PfN = W.Pf[Vn];
      for (NodeId Va = W.OrAnc[Vn]; Va != InvalidNode; Va = W.OrAnc[Va]) {
        if (TopoO.Topo.Depth[Vo] < W.GnTopo.Depth[Va])
          continue;
        if (!W.PfSets.subsetOf(PfN, W.Pf[Va]))
          continue;
        if (!vertexIncludes(Gn, Va, Gn, Vn, Syms, &W))
          continue;
        // Redirect the tree edge (parent(Vn), Vn) to Va.
        NodeId Parent = W.GnTopo.Parent[Vn];
        for (NodeId &S : Gn.node(Parent).Succs)
          if (S == Vn)
            S = Va;
        if (Stats)
          ++Stats->CycleIntroductions;
        return true;
      }
    }
    return false;
  }

  /// Replacement rule (Definition 7.5).
  bool replacement() {
    // Size of the current graph (reachable vertices + edges): the rule
    // only fires on a strict decrease (Figure 7). The topology is
    // current, so this is a pass over BfsOrder, not a fresh BFS.
    uint64_t OldSize = 0;
    for (NodeId V : W.GnTopo.BfsOrder)
      OldSize += 1 + CGn.node(V).Succs.size();

    for (auto [Vo, Vn] : W.Clashes) {
      PfSetId PfN = W.Pf[Vn];
      bool DepthClash = TopoO.Topo.Depth[Vo] < W.GnTopo.Depth[Vn];
      for (NodeId Va = W.OrAnc[Vn]; Va != InvalidNode; Va = W.OrAnc[Va]) {
        if (TopoO.Topo.Depth[Vo] < W.GnTopo.Depth[Va])
          continue;
        if (vertexIncludes(Gn, Va, Gn, Vn, Syms, &W))
          continue; // cycle introduction territory, already failed on pf
        if (!W.PfSets.subsetOf(PfN, W.Pf[Va]) && !DepthClash)
          continue;
        // The conclusion's extension: prefer a type from the database
        // that covers both clash vertices, if it shrinks the graph.
        if (Opts.Database) {
          const TypeGraph *Best = nullptr;
          for (const TypeGraph &D : *Opts.Database) {
            if (!vertexIncludes(D, D.root(), Gn, Va, Syms, &W) ||
                !vertexIncludes(D, D.root(), Gn, Vn, Syms, &W))
              continue;
            if (!Best || D.sizeMetric() < Best->sizeMetric())
              Best = &D;
          }
          if (Best && sizeWithRedirect(Va, *Best) < OldSize) {
            commitReplace(Va, *Best);
            if (Stats) {
              ++Stats->Replacements;
              ++Stats->DatabaseHits;
            }
            return true;
          }
        }
        // Replace Va by an upper bound of Va and Vn, computed with the
        // collapsing union (the paper's growth-avoiding union variant);
        // fall back to Any. Either must strictly decrease the size of
        // the graph (Figure 7).
        W.StartBuf.assign({Va, Vn});
        TypeGraph Rep =
            collapsingUnionFrom(Gn, W.StartBuf, Syms, Opts.Norm, NScratch);
        if (sizeWithRedirect(Va, Rep) < OldSize) {
          commitReplace(Va, Rep);
          if (Stats)
            ++Stats->Replacements;
          return true;
        }
        TypeGraph AnyRep = TypeGraph::makeAny();
        if (sizeWithRedirect(Va, AnyRep) < OldSize) {
          commitReplace(Va, AnyRep);
          if (Stats)
            ++Stats->Replacements;
          return true;
        }
        // Cannot shrink here; try the next ancestor / clash.
      }
    }
    return false;
  }

  /// Size of the graph graftReplace(Gn, Va, Rep) would have, without
  /// building it: a BFS over Gn with every edge into Va read as an edge
  /// onto Rep's root (Rep ids offset past Gn's).
  uint64_t sizeWithRedirect(NodeId Va, const TypeGraph &Rep) {
    uint32_t N = Gn.numNodes();
    uint64_t Epoch = W.beginNodeEpoch(size_t(N) + Rep.numNodes());
    W.Worklist.clear();
    auto Push = [&](NodeId X) {
      if (W.NodeMark[X] != Epoch) {
        W.NodeMark[X] = Epoch;
        W.Worklist.push_back(X);
      }
    };
    Push(Gn.root() == Va ? N + Rep.root() : Gn.root());
    uint64_t Size = 0;
    while (!W.Worklist.empty()) {
      NodeId X = W.Worklist.back();
      W.Worklist.pop_back();
      const TGNode &Nd = X < N ? CGn.node(X) : Rep.node(X - N);
      Size += 1 + Nd.Succs.size();
      if (X < N) {
        for (NodeId S : Nd.Succs)
          Push(S == Va ? N + Rep.root() : S);
      } else {
        for (NodeId S : Nd.Succs)
          Push(N + S);
      }
    }
    return Size;
  }

  /// Commits the replacement in place: append a copy of Rep, redirect
  /// every edge into Va (and the root, if Va is the root) onto it. The
  /// orphaned subtree stays as garbage until the final compaction.
  void commitReplace(NodeId Va, const TypeGraph &Rep) {
    uint32_t Old = Gn.numNodes();
    NodeId RepRoot = copySubgraph(Rep, Rep.root(), Gn);
    if (Va == Gn.root()) {
      Gn.setRoot(RepRoot);
      return;
    }
    for (NodeId V = 0; V != Old; ++V)
      for (NodeId &S : Gn.node(V).Succs)
        if (S == Va)
          S = RepRoot;
  }

  const TypeGraph &Go;
  TypeGraph &Gn;
  /// Read-only alias of Gn: pure reads must resolve to the const
  /// node() overload, which neither drops the derived caches nor runs
  /// the copy-on-write ownership check.
  const TypeGraph &CGn;
  const SymbolTable &Syms;
  const WideningOptions &Opts;
  WideningStats *Stats;
  NormalizeScratch *NScratch;
  WideningScratch &W;
  const TypeGraph::TopoCache &TopoO;
};

/// Shared implementation: \p CheckInclusion is false when the caller has
/// already refuted Gnew <= Gold (detail::graphWidenNotIncluded).
static TypeGraph widenImpl(const TypeGraph &Gold, const TypeGraph &Gnew,
                           const SymbolTable &Syms,
                           const WideningOptions &Opts,
                           WideningStats *Stats, NormalizeScratch *Scratch,
                           WideningScratch *WS, bool CheckInclusion) {
  WideningScratch &W = gaia::detail::wideningScratchOr(WS);
  if (Stats)
    ++Stats->Invocations;
  if (CheckInclusion && graphIncludes(Gold, Gnew, Syms, &W))
    return Gold;
  if (Opts.Mode == WidenMode::DepthK) {
    // Baseline strategy: truncate the union at DepthK or-levels. This
    // is what the paper's widening is measured against.
    NormalizeOptions Truncate = Opts.Norm;
    Truncate.MaxDepth = Opts.DepthK;
    TypeGraph U = graphUnion(Gold, Gnew, Syms, Opts.Norm, Scratch);
    return normalizeGraph(U, Syms, Truncate, Scratch);
  }
  if (Gold.isBottomGraph())
    return normalizeGraph(Gnew, Syms, Opts.Norm, Scratch);
  TypeGraph Gn = graphUnion(Gold, Gnew, Syms, Opts.Norm, Scratch);

  WidenRun Run(Gold, Gn, Syms, Opts, Stats, Scratch, W);
  uint32_t Transforms = 0;
  if (Opts.Cancel)
    Opts.Cancel->poll();
  while (Run.applyOneTransform()) {
    if (Opts.Cancel)
      Opts.Cancel->poll();
    ++Transforms;
    if (Transforms > Opts.MaxTransforms) {
      // Defensive budget exhausted. The paper proves the transformation
      // loop terminates; if an implementation bug (or an adversarial
      // input) breaks that proof, collapsing to Any is the only sound
      // answer that also guarantees the widening chain stays finite.
      // This must work in release builds: the previous assert compiled
      // away under NDEBUG and silently returned a possibly ever-growing
      // graph, breaking the engine's termination argument.
      if (Stats)
        ++Stats->BudgetExhaustions;
      return TypeGraph::makeAny();
    }
  }
  // Cycle introduction can make previously distinct vertices
  // language-equivalent; re-normalize (exactly language-preserving) so
  // results stay minimal and canonical. This is also where the garbage
  // the in-place transforms left behind is dropped.
  if (Transforms != 0)
    Gn = normalizeGraph(Gn, Syms, Opts.Norm, Scratch);
#ifndef NDEBUG
  assert(graphIncludes(Gn, Gold, Syms, &W) &&
         "widening must include old graph");
  assert(graphIncludes(Gn, Gnew, Syms, &W) &&
         "widening must include new graph");
#endif
  return Gn;
}

} // namespace

TypeGraph gaia::graphWiden(const TypeGraph &Gold, const TypeGraph &Gnew,
                           const SymbolTable &Syms,
                           const WideningOptions &Opts,
                           WideningStats *Stats, NormalizeScratch *Scratch,
                           WideningScratch *WS) {
  return widenImpl(Gold, Gnew, Syms, Opts, Stats, Scratch, WS,
                   /*CheckInclusion=*/true);
}

TypeGraph gaia::detail::graphWidenNotIncluded(
    const TypeGraph &Gold, const TypeGraph &Gnew, const SymbolTable &Syms,
    const WideningOptions &Opts, WideningStats *Stats,
    NormalizeScratch *Scratch, WideningScratch *WS) {
  assert(!graphIncludes(Gold, Gnew, Syms, WS) &&
         "caller promised the inclusion check was already refuted");
  return widenImpl(Gold, Gnew, Syms, Opts, Stats, Scratch, WS,
                   /*CheckInclusion=*/false);
}

TypeGraph gaia::detail::graftReplace(const TypeGraph &G, NodeId Va,
                                     const TypeGraph &Rep,
                                     const TypeGraph::Topology &Topo) {
  return graftReplaceImpl(G, Va, Rep, Topo);
}
