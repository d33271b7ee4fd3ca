//===- typegraph/TypeGraph.cpp ---------------------------------------------=//

#include "typegraph/TypeGraph.h"

#include "support/Debug.h"
#include "support/FaultInject.h"
#include "support/GraphInterner.h" // structuralHash/Equal: cachesFresh
#include "support/PfSetInterner.h"
#include "typegraph/Normalize.h"

#include <algorithm>
#include <set>

using namespace gaia;

NodeId TypeGraph::addAny() {
  invalidateDerived();
  std::vector<TGNode> &Ns = mutableNodes();
  Ns.push_back(TGNode{NodeKind::Any, InvalidFunctor, {}});
  return static_cast<NodeId>(Ns.size() - 1);
}

NodeId TypeGraph::addInt() {
  invalidateDerived();
  std::vector<TGNode> &Ns = mutableNodes();
  Ns.push_back(TGNode{NodeKind::Int, InvalidFunctor, {}});
  return static_cast<NodeId>(Ns.size() - 1);
}

NodeId TypeGraph::addFunc(FunctorId Fn, SuccList Args) {
  GAIA_FAULT_POINT(Alloc); // chaos probe: throws std::bad_alloc
  invalidateDerived();
  std::vector<TGNode> &Ns = mutableNodes();
  Ns.push_back(TGNode{NodeKind::Func, Fn, std::move(Args)});
  return static_cast<NodeId>(Ns.size() - 1);
}

NodeId TypeGraph::addOr(SuccList Alts) {
  GAIA_FAULT_POINT(Alloc); // chaos probe: throws std::bad_alloc
  invalidateDerived();
  std::vector<TGNode> &Ns = mutableNodes();
  Ns.push_back(TGNode{NodeKind::Or, InvalidFunctor, std::move(Alts)});
  return static_cast<NodeId>(Ns.size() - 1);
}

TypeGraph TypeGraph::makeBottom() {
  TypeGraph G;
  G.setRoot(G.addOr({}));
  G.markNormalized(0, 0, 0, NormScope::OptionIndependent);
  return G;
}

TypeGraph TypeGraph::makeAny() {
  TypeGraph G;
  NodeId Leaf = G.addAny();
  G.setRoot(G.addOr({Leaf}));
  G.markNormalized(0, 0, 0, NormScope::OptionIndependent);
  return G;
}

TypeGraph TypeGraph::makeInt() {
  TypeGraph G;
  NodeId Leaf = G.addInt();
  G.setRoot(G.addOr({Leaf}));
  G.markNormalized(0, 0, 0, NormScope::OptionIndependent);
  return G;
}

TypeGraph TypeGraph::makeFunctorOfAny(const SymbolTable &Syms, FunctorId Fn) {
  TypeGraph G;
  uint32_t Arity = Syms.functorArity(Fn);
  SuccList Args;
  Args.reserve(Arity);
  for (uint32_t I = 0; I != Arity; ++I) {
    NodeId Leaf = G.addAny();
    Args.push_back(G.addOr({Leaf}));
  }
  NodeId F = G.addFunc(Fn, std::move(Args));
  G.setRoot(G.addOr({F}));
  // Every or-vertex has degree 1 and every deeper or-vertex is Any, so
  // normalization under any or-cap / depth bound reproduces this graph.
  G.markNormalized(0, 0, 0, NormScope::OptionIndependent);
  return G;
}

TypeGraph TypeGraph::makeAnyList(SymbolTable &Syms,
                                 const NormalizeOptions *CertifyFor) {
  // Breadth-first ids: the root, its two alternatives in functor-rank
  // order, the cons head's or-vertex and its any-leaf. The cons tail is
  // the back edge to the root.
  FunctorId Nil = Syms.nilFunctor(), Cons = Syms.consFunctor();
  bool ConsFirst = Syms.functorRank(Cons) < Syms.functorRank(Nil);
  TypeGraph G;
  G.reserveNodes(5);
  G.addOr({1, 2});
  for (FunctorId Fn : {ConsFirst ? Cons : Nil, ConsFirst ? Nil : Cons})
    G.addFunc(Fn, Fn == Cons ? SuccList{3, 0} : SuccList{});
  G.addOr({4});
  G.addAny();
  G.setRoot(0);
  if (CertifyFor && CertifyFor->OrCap != 1 &&
      CertifyFor->MaxNodes >= G.numNodes())
    G.markNormalized(CertifyFor->OrCap, CertifyFor->MaxNodes,
                     CertifyFor->MaxDepth);
  return G;
}

TypeGraph::Topology TypeGraph::computeTopology() const {
  Topology T;
  T.Depth.assign(numNodes(), 0);
  T.Parent.assign(numNodes(), InvalidNode);
  if (RootId == InvalidNode)
    return T;
  const std::vector<TGNode> &Ns = *NodesP;
  // BfsOrder doubles as the BFS queue: nodes are appended once and
  // scanned once, avoiding a separate deque allocation.
  T.BfsOrder.reserve(Ns.size());
  T.BfsOrder.push_back(RootId);
  T.Depth[RootId] = 1;
  for (size_t Head = 0; Head != T.BfsOrder.size(); ++Head) {
    NodeId V = T.BfsOrder[Head];
    for (NodeId S : Ns[V].Succs) {
      if (T.Depth[S] != 0)
        continue;
      T.Depth[S] = T.Depth[V] + 1;
      T.Parent[S] = V;
      T.BfsOrder.push_back(S);
    }
  }
  return T;
}

bool TypeGraph::fillTopology(const SymbolTable &Syms, PfSetInterner &Pf,
                             Topology &T, std::vector<uint32_t> &BfsPos,
                             std::vector<NodeId> &OrAnc,
                             std::vector<uint32_t> &PfIds) const {
  uint32_t N = numNodes();
  T.Depth.assign(N, 0);
  T.Parent.assign(N, InvalidNode);
  T.BfsOrder.clear();
  BfsPos.assign(N, ~0u);
  OrAnc.assign(N, InvalidNode);
  PfIds.assign(N, InvalidPfSet);
  bool AllShared = Pf.sharedSize() != 0;
  if (RootId == InvalidNode)
    return AllShared;
  T.BfsOrder.reserve(N);
  T.BfsOrder.push_back(RootId);
  T.Depth[RootId] = 1;
  for (size_t Head = 0; Head != T.BfsOrder.size(); ++Head) {
    NodeId V = T.BfsOrder[Head];
    for (NodeId S : node(V).Succs) {
      if (T.Depth[S] != 0)
        continue;
      T.Depth[S] = T.Depth[V] + 1;
      T.Parent[S] = V;
      T.BfsOrder.push_back(S);
    }
  }
  SmallVector<FunctorId, 8> Buf;
  for (size_t I = 0; I != T.BfsOrder.size(); ++I) {
    NodeId V = T.BfsOrder[I];
    BfsPos[V] = static_cast<uint32_t>(I);
    const TGNode &Nd = node(V);
    // Nearest strict or-ancestor: the tree parent if it is an or-vertex,
    // else the parent's own nearest or-ancestor (parents precede their
    // children in BFS order).
    NodeId P = T.Parent[V];
    if (P != InvalidNode)
      OrAnc[V] = node(P).Kind == NodeKind::Or ? P : OrAnc[P];
    if (Nd.Kind != NodeKind::Or)
      continue;
    Buf.clear();
    for (NodeId S : Nd.Succs) {
      const TGNode &SN = node(S);
      if (SN.Kind == NodeKind::Func)
        Buf.push_back(SN.Fn);
      else if (SN.Kind == NodeKind::Int)
        Buf.push_back(Syms.intFunctor());
    }
    std::sort(Buf.begin(), Buf.end());
    Buf.erase(std::unique(Buf.begin(), Buf.end()), Buf.end());
    PfIds[V] = Pf.intern(Buf.data(), Buf.size());
    AllShared = AllShared && PfIds[V] < Pf.sharedSize();
  }
  return AllShared;
}

const TypeGraph::TopoCache &TypeGraph::topology(const SymbolTable &Syms,
                                                PfSetInterner &Pf) const {
  if (Topo && Pf.honorsEpoch(Topo->PfEpoch))
    return *Topo;
  // Build a fresh immutable snapshot and swap the pointer: the old
  // pointee (if any) may be shared with copies of this value and must
  // not be written. Frozen shared-tier graphs have their snapshot
  // precomputed under the tier's pf epoch at freeze time, so concurrent
  // readers never reach this rebuild path.
  auto C = std::make_shared<TopoCache>();
  bool AllShared =
      fillTopology(Syms, Pf, C->Topo, C->BfsPos, C->OrAnc, C->Pf);
  // Tag with the frozen tier's epoch when every pf id lives in the tier:
  // the cache is then valid under *every* interner layered over that
  // tier, which is what lets OpCache::freeze prime one snapshot per
  // canonical graph for all concurrent workers.
  C->PfEpoch = AllShared ? Pf.sharedEpoch() : Pf.epoch();
  Topo = std::move(C);
  return *Topo;
}

bool TypeGraph::cachesFresh(const SymbolTable &Syms, std::string *Why) const {
  auto Fail = [&](const char *Msg) {
    if (Why)
      *Why = Msg;
    return false;
  };
  if (Topo) {
    Topology Fresh = computeTopology();
    if (Fresh.Depth != Topo->Topo.Depth || Fresh.Parent != Topo->Topo.Parent ||
        Fresh.BfsOrder != Topo->Topo.BfsOrder)
      return Fail("stale topology cache (BFS disagrees)");
    for (size_t I = 0; I != Fresh.BfsOrder.size(); ++I)
      if (Topo->BfsPos[Fresh.BfsOrder[I]] != I)
        return Fail("stale topology cache (BfsPos disagrees)");
    for (NodeId V : Fresh.BfsOrder) {
      bool IsOr = node(V).Kind == NodeKind::Or;
      if (IsOr != (Topo->Pf[V] != InvalidPfSet))
        return Fail("stale topology cache (pf-set id shape disagrees)");
    }
  }
  if (SigValid) {
    // Recompute through the real structuralHash on an uncached twin
    // (copy-on-write makes the copy a refcount bump; setRoot drops its
    // caches without touching the shared nodes), so the audit can never
    // drift from the production hash.
    TypeGraph Twin = *this;
    Twin.setRoot(RootId);
    if (structuralHash(Twin) != Sig)
      return Fail("stale structural signature");
  }
  if (NormValid && !validate(Syms))
    return Fail("normalization certificate on an invalid graph");
#if !defined(NDEBUG) || defined(GAIA_AUDIT)
  // GraphInterner resolves certified graphs by shape alone, so a
  // certificate on a graph that is not the canonical unfold of its
  // language would mint a second id for a known language. Re-derive the
  // canonical form from an uncertified twin (setRoot drops the caches)
  // under unbounded options: the claim holds whatever options certified
  // the graph.
  if (NormValid) {
    TypeGraph Twin = *this;
    Twin.setRoot(RootId);
    if (!structuralEqual(normalizeGraph(Twin, Syms), *this))
      return Fail("normalization certificate on a non-canonical graph");
  }
#endif
  return true;
}

std::vector<FunctorId> TypeGraph::pfSet(NodeId Id,
                                        const SymbolTable &Syms) const {
  const TGNode &N = node(Id);
  std::vector<FunctorId> Result;
  switch (N.Kind) {
  case NodeKind::Any:
    return Result;
  case NodeKind::Int:
    Result.push_back(Syms.intFunctor());
    return Result;
  case NodeKind::Func:
    Result.push_back(N.Fn);
    return Result;
  case NodeKind::Or:
    for (NodeId S : N.Succs) {
      const TGNode &SN = node(S);
      if (SN.Kind == NodeKind::Func)
        Result.push_back(SN.Fn);
      else if (SN.Kind == NodeKind::Int)
        Result.push_back(Syms.intFunctor());
    }
    std::sort(Result.begin(), Result.end());
    Result.erase(std::unique(Result.begin(), Result.end()), Result.end());
    return Result;
  }
  GAIA_UNREACHABLE("covered switch");
}

bool SuccOrder::operator()(const std::pair<NodeKind, FunctorId> &A,
                           const std::pair<NodeKind, FunctorId> &B) const {
  // Any-vertices first; then order by (name, arity).
  bool AAny = A.first == NodeKind::Any;
  bool BAny = B.first == NodeKind::Any;
  if (AAny != BAny)
    return AAny;
  if (AAny)
    return false;
  auto KeyOf = [&](const std::pair<NodeKind, FunctorId> &X)
      -> std::pair<const std::string &, uint32_t> {
    if (X.first == NodeKind::Int) {
      static const std::string IntName = "$int";
      return {IntName, 0};
    }
    return {Syms.functorName(X.second), Syms.functorArity(X.second)};
  };
  auto KA = KeyOf(A);
  auto KB = KeyOf(B);
  if (KA.first != KB.first)
    return KA.first < KB.first;
  return KA.second < KB.second;
}

void TypeGraph::sortOrSuccessors(const SymbolTable &Syms) {
  // Integer sort keys: 0 for Any (always first), 1 + functor rank
  // otherwise, with Int mapping to the reserved '$int'/0 functor. The
  // rank order is exactly the (name, arity) order SuccOrder defines, so
  // the result is identical to sorting with string comparisons.
  auto KeyOf = [&](NodeId Id) -> uint64_t {
    const TGNode &N = node(Id);
    if (N.Kind == NodeKind::Any)
      return 0;
    FunctorId Fn = N.Kind == NodeKind::Int ? Syms.intFunctor() : N.Fn;
    return 1 + static_cast<uint64_t>(Syms.functorRank(Fn));
  };
  for (TGNode &N : mutableNodes()) {
    if (N.Kind != NodeKind::Or || N.Succs.size() < 2)
      continue;
    std::stable_sort(N.Succs.begin(), N.Succs.end(),
                     [&](NodeId A, NodeId B) { return KeyOf(A) < KeyOf(B); });
  }
  invalidateDerived();
}

TypeGraph TypeGraph::compact() const {
  TypeGraph Out;
  if (RootId == InvalidNode)
    return makeBottom();
  Topology Fresh;
  if (!Topo)
    Fresh = computeTopology();
  const Topology &T = Topo ? Topo->Topo : Fresh;
  Out.reserveNodes(static_cast<uint32_t>(T.BfsOrder.size()));
  std::vector<NodeId> Remap(numNodes(), InvalidNode);
  for (NodeId V : T.BfsOrder) {
    const TGNode &N = node(V);
    switch (N.Kind) {
    case NodeKind::Any:
      Remap[V] = Out.addAny();
      break;
    case NodeKind::Int:
      Remap[V] = Out.addInt();
      break;
    case NodeKind::Func:
      Remap[V] = Out.addFunc(N.Fn, {});
      break;
    case NodeKind::Or:
      Remap[V] = Out.addOr({});
      break;
    }
  }
  for (NodeId V : T.BfsOrder) {
    SuccList NewSuccs;
    NewSuccs.reserve(node(V).Succs.size());
    for (NodeId S : node(V).Succs) {
      assert(Remap[S] != InvalidNode && "successor of reachable node "
                                        "must be reachable");
      NewSuccs.push_back(Remap[S]);
    }
    Out.node(Remap[V]).Succs = std::move(NewSuccs);
  }
  Out.setRoot(Remap[RootId]);
  return Out;
}

uint64_t TypeGraph::sizeMetric() const {
  if (RootId == InvalidNode)
    return 0;
  // Reuse the topology snapshot when one is cached (the widening asks
  // for sizes between transforms, where the snapshot is already hot).
  if (Topo) {
    uint64_t Size = 0;
    for (NodeId V : Topo->Topo.BfsOrder)
      Size += 1 + node(V).Succs.size();
    return Size;
  }
  Topology T = computeTopology();
  uint64_t Size = 0;
  for (NodeId V : T.BfsOrder)
    Size += 1 + node(V).Succs.size();
  return Size;
}

bool TypeGraph::validate(const SymbolTable &Syms, std::string *Why) const {
  auto Fail = [&](const std::string &Msg) {
    if (Why)
      *Why = Msg;
    return false;
  };
  if (RootId == InvalidNode)
    return Fail("no root");
  Topology T = computeTopology();

  if (node(RootId).Kind != NodeKind::Or)
    return Fail("Flip-Flop: root is not an or-vertex");

  for (NodeId V : T.BfsOrder) {
    const TGNode &N = node(V);
    switch (N.Kind) {
    case NodeKind::Any:
    case NodeKind::Int:
      if (!N.Succs.empty())
        return Fail("leaf vertex with successors");
      break;
    case NodeKind::Func: {
      if (N.Succs.size() != Syms.functorArity(N.Fn))
        return Fail("functor vertex arity mismatch for " +
                    Syms.functorString(N.Fn));
      for (NodeId S : N.Succs)
        if (node(S).Kind != NodeKind::Or)
          return Fail("Flip-Flop: functor successor is not an or-vertex");
      break;
    }
    case NodeKind::Or: {
      // Isolated-Any: an any-successor must be the only successor.
      if (N.Succs.size() > 1)
        for (NodeId S : N.Succs)
          if (node(S).Kind == NodeKind::Any)
            return Fail("Isolated-Any violated");
      std::set<FunctorId> Seen;
      bool SawInt = false;
      for (NodeId S : N.Succs) {
        const TGNode &SN = node(S);
        if (SN.Kind == NodeKind::Or)
          return Fail("Flip-Flop: or successor of or-vertex");
        if (SN.Kind == NodeKind::Int) {
          if (SawInt)
            return Fail("duplicate Int successor");
          SawInt = true;
        }
        if (SN.Kind == NodeKind::Func) {
          // Principal functor restriction.
          if (!Seen.insert(SN.Fn).second)
            return Fail("Principal-Functor violated on " +
                        Syms.functorString(SN.Fn));
          // Int absorbs integer literals; keeping both is redundant.
          if (SawInt && Syms.isIntegerLiteral(SN.Fn))
            return Fail("integer literal alongside Int successor");
        }
      }
      // Successor sortedness.
      SuccOrder Order{Syms};
      for (size_t I = 1; I < N.Succs.size(); ++I) {
        const TGNode &A = node(N.Succs[I - 1]);
        const TGNode &B = node(N.Succs[I]);
        if (Order({B.Kind, B.Fn}, {A.Kind, A.Fn}))
          return Fail("or-successors not sorted");
      }
      break;
    }
    }
  }

  // No-Sharing and Or-Cycle: every edge is either a BFS-tree edge or a
  // back edge to an or-vertex on the tree path from the root (an
  // ancestor). This is equivalent to the paper's formulation: removing
  // the last edge of every canonical cycle leaves a tree.
  // Compute ancestor sets lazily by walking parents.
  auto IsAncestor = [&](NodeId A, NodeId V) {
    for (NodeId P = V; P != InvalidNode; P = T.Parent[P])
      if (P == A)
        return true;
    return false;
  };
  for (NodeId V : T.BfsOrder) {
    for (NodeId S : node(V).Succs) {
      if (T.Parent[S] == V)
        continue; // tree edge
      // Non-tree edge: must go to an or-vertex ancestor of V.
      if (node(S).Kind != NodeKind::Or)
        return Fail("Or-Cycle: back edge to non-or vertex");
      if (!IsAncestor(S, V))
        return Fail("No-Sharing: cross edge detected");
    }
  }
  return true;
}
