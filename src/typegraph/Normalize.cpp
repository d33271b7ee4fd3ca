//===- typegraph/Normalize.cpp ---------------------------------------------=//

#include "typegraph/Normalize.h"

#include "support/Cancellation.h"
#include "support/Debug.h"
#include "support/FaultInject.h"
#include "support/Hashing.h"
#include "support/SmallVector.h"

#include <algorithm>

using namespace gaia;

namespace {

/// Sentinel constituents inside state keys. Any two Any leaves (resp. Int
/// leaves) are interchangeable, so they canonicalize to one marker each;
/// nullary functor vertices are canonicalized to their functor id (high
/// bit set) because their denotation is determined by the functor alone.
/// This canonicalization is what makes the subset test of the collapsing
/// union meaningful across graphs.
constexpr NodeId AnyMarker = 0xFFFFFFFE;
constexpr NodeId IntMarker = 0xFFFFFFFD;
constexpr NodeId NullaryFlag = 0x80000000;

static bool isNullaryMarker(NodeId V) {
  return (V & NullaryFlag) != 0 && V != AnyMarker && V != IntMarker;
}

/// The thread-local fallback scratch for callers that do not own one.
static NormalizeScratch &scratchOr(NormalizeScratch *S) {
  static thread_local NormalizeScratch TLS;
  return S ? *S : TLS;
}

using DetState = NormalizeScratch::DetState;
using DetTrans = NormalizeScratch::DetTrans;
using TreeNode = NormalizeScratch::TreeNode;

/// Expands \p Roots through nested or-vertices into leaf/functor
/// constituents and canonicalizes into a sorted unique key, assembled in
/// \p Scratch.KeyBuf (valid until the next closureKey call).
static void closureKey(const TypeGraph &G, const NodeId *Roots,
                       size_t NumRoots, NormalizeScratch &Scratch) {
  std::vector<NodeId> &Key = Scratch.KeyBuf;
  std::vector<NodeId> &Stack = Scratch.Stack;
  Key.clear();
  Stack.assign(Roots, Roots + NumRoots);
  Scratch.beginEpoch(G.numNodes());
  bool HasAny = false, HasInt = false;
  while (!Stack.empty()) {
    NodeId V = Stack.back();
    Stack.pop_back();
    const TGNode &N = G.node(V);
    switch (N.Kind) {
    case NodeKind::Any:
      HasAny = true;
      break;
    case NodeKind::Int:
      HasInt = true;
      break;
    case NodeKind::Func:
      if (N.Succs.empty()) {
        assert((N.Fn & NullaryFlag) == 0 && "functor id overflows marker");
        Key.push_back(N.Fn | NullaryFlag);
      } else {
        Key.push_back(V);
      }
      break;
    case NodeKind::Or:
      if (!Scratch.marked(V)) {
        Scratch.mark(V);
        for (NodeId S : N.Succs)
          Stack.push_back(S);
      }
      break;
    }
  }
  if (HasAny) {
    Key.assign(1, AnyMarker);
    return;
  }
  std::sort(Key.begin(), Key.end());
  Key.erase(std::unique(Key.begin(), Key.end()), Key.end());
  if (HasInt)
    Key.push_back(IntMarker);
}

static uint32_t hashKey(const NodeId *Key, size_t Len) {
  std::size_t Seed = Len;
  for (size_t I = 0; I != Len; ++I)
    hashCombine(Seed, Key[I]);
  return static_cast<uint32_t>(Seed ^ (Seed >> 32));
}

/// Shared machinery for both subset constructions: state creation,
/// transition computation, productivity pruning, minimization and the
/// canonical unfolding. Owns no containers: the automaton, the
/// partition and the unfolded tree all live in the caller's scratch.
class DetBuilderBase {
public:
  DetBuilderBase(const TypeGraph &G, const SymbolTable &Syms,
                 const NormalizeOptions &Opts, NormalizeScratch &Scratch)
      : G(G), Syms(Syms), Opts(Opts), Scratch(Scratch) {
    Scratch.States.clear();
    Scratch.KeyPool.clear();
    Scratch.TransPool.clear();
    Scratch.ArgPool.clear();
    Scratch.PathStates.clear();
    Scratch.StateIds.reset(0);
  }

protected:
  /// The state whose key is Scratch.KeyBuf, or NotFound; \p Hash is the
  /// key's hash.
  uint32_t findState(uint32_t Hash) const {
    const std::vector<NodeId> &Key = Scratch.KeyBuf;
    return Scratch.StateIds.find(Hash, [&](uint32_t Id) {
      const DetState &S = Scratch.States[Id];
      return S.KeyLen == Key.size() &&
             std::equal(Key.begin(), Key.end(),
                        Scratch.KeyPool.begin() + S.KeyOff);
    });
  }

  /// Creates a state keyed by Scratch.KeyBuf (hash \p Hash); its
  /// transitions are computed later.
  uint32_t addState(uint32_t Hash) {
    uint32_t Id = Scratch.StateIds.insert(Hash);
    DetState S;
    S.KeyOff = static_cast<uint32_t>(Scratch.KeyPool.size());
    S.KeyLen = static_cast<uint32_t>(Scratch.KeyBuf.size());
    Scratch.KeyPool.insert(Scratch.KeyPool.end(), Scratch.KeyBuf.begin(),
                           Scratch.KeyBuf.end());
    Scratch.States.push_back(S);
    return Id;
  }

  /// Computes the functor transitions of state \p Id from its key. Each
  /// argument state is requested through \p ArgState, which differs
  /// between the exact and the collapsing construction. Re-entrant (the
  /// collapsing construction recurses through ArgState and appends to
  /// every pool), so the key is consumed before the first ArgState call,
  /// the state's transitions are gathered in inline-storage locals and
  /// appended to the pools only at the end, and no reference into a
  /// pool is held across a call.
  template <typename ArgStateFn>
  void computeTransitions(uint32_t Id, ArgStateFn ArgState) {
    const uint32_t KeyOff = Scratch.States[Id].KeyOff;
    const uint32_t KeyLen = Scratch.States[Id].KeyLen;
    const NodeId *Key = Scratch.KeyPool.data() + KeyOff;
    if (KeyLen != 0 && Key[0] == AnyMarker) {
      Scratch.States[Id].IsAny = true;
      return;
    }
    bool HasInt = KeyLen != 0 && Key[KeyLen - 1] == IntMarker;

    // Functor constituents in (name, arity) order via the memoized
    // functor ranks, same-functor members in key (ascending vertex id)
    // order — the historic stable grouping, without stable_sort's
    // temporary buffer. Only vertex constituents share a functor: a
    // nullary functor has exactly one (deduplicated) marker.
    struct FnConst {
      FunctorId Fn;
      NodeId V; ///< InvalidNode for nullary markers
    };
    SmallVector<FnConst, 8> Consts;
    for (uint32_t I = 0; I != KeyLen; ++I) {
      NodeId V = Key[I];
      if (V == IntMarker)
        continue;
      FunctorId Fn = isNullaryMarker(V) ? (V & ~NullaryFlag) : G.node(V).Fn;
      if (HasInt && Syms.isIntegerLiteral(Fn))
        continue; // absorbed by Int
      Consts.push_back({Fn, isNullaryMarker(V) ? InvalidNode : V});
    }
    std::sort(Consts.begin(), Consts.end(),
              [&](const FnConst &A, const FnConst &B) {
                uint32_t RA = Syms.functorRank(A.Fn);
                uint32_t RB = Syms.functorRank(B.Fn);
                return RA != RB ? RA < RB : A.V < B.V;
              });

    // Or-degree cap of Section 9 (count distinct functors).
    uint32_t Degree = HasInt ? 1 : 0;
    for (size_t I = 0; I != Consts.size(); ++I)
      if (I == 0 || Consts[I].Fn != Consts[I - 1].Fn)
        ++Degree;
    if (Opts.OrCap != 0 && Degree > Opts.OrCap) {
      Scratch.States[Id].IsAny = true;
      return;
    }

    // ArgOff is relative to Args until the final append.
    SmallVector<DetTrans, 4> Trans;
    SmallVector<uint32_t, 8> Args;
    for (size_t I = 0; I != Consts.size();) {
      FunctorId Fn = Consts[I].Fn;
      size_t E = I;
      while (E != Consts.size() && Consts[E].Fn == Fn)
        ++E;
      uint32_t Arity = Syms.functorArity(Fn);
      Trans.push_back({Fn, static_cast<uint32_t>(Args.size()), Arity});
      for (uint32_t J = 0; J != Arity; ++J) {
        SmallVector<NodeId, 8> ArgRoots;
        for (size_t K = I; K != E; ++K)
          if (Consts[K].V != InvalidNode)
            ArgRoots.push_back(G.node(Consts[K].V).Succs[J]);
        uint32_t A = ArgState(ArgRoots.data(), ArgRoots.size());
        Args.push_back(A);
      }
      I = E;
    }
    uint32_t ArgBase = static_cast<uint32_t>(Scratch.ArgPool.size());
    Scratch.ArgPool.insert(Scratch.ArgPool.end(), Args.begin(), Args.end());
    DetState &S = Scratch.States[Id];
    S.HasInt = HasInt;
    S.TransOff = static_cast<uint32_t>(Scratch.TransPool.size());
    S.NumTrans = static_cast<uint32_t>(Trans.size());
    for (DetTrans T : Trans) {
      T.ArgOff += ArgBase;
      Scratch.TransPool.push_back(T);
    }
  }

  bool allArgsProductive(const DetTrans &T) const {
    for (uint32_t K = 0; K != T.NumArgs; ++K)
      if (!Scratch.States[Scratch.ArgPool[T.ArgOff + K]].Productive)
        return false;
    return true;
  }

  /// Marks the states with a non-empty denotation and drops every
  /// transition into an empty one (in place, within each state's span).
  void computeProductivity() {
    std::vector<DetState> &States = Scratch.States;
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (DetState &S : States) {
        if (S.Productive)
          continue;
        bool Prod = S.IsAny || S.HasInt;
        for (uint32_t T = 0; !Prod && T != S.NumTrans; ++T)
          Prod = allArgsProductive(Scratch.TransPool[S.TransOff + T]);
        if (Prod) {
          S.Productive = true;
          Changed = true;
        }
      }
    }
    for (DetState &S : States) {
      uint32_t Kept = 0;
      for (uint32_t T = 0; T != S.NumTrans; ++T) {
        const DetTrans Tr = Scratch.TransPool[S.TransOff + T];
        if (allArgsProductive(Tr))
          Scratch.TransPool[S.TransOff + Kept++] = Tr;
      }
      S.NumTrans = Kept;
    }
  }

  /// Hash of state \p I's signature in the current refinement round:
  /// its block (or, for the initial partition, its flags) and, per
  /// transition, the functor and the blocks of the argument states.
  uint32_t signatureHash(uint32_t I, bool Initial) const {
    const DetState &S = Scratch.States[I];
    std::size_t Seed = Initial ? (S.IsAny ? 2 : 0) | (S.HasInt ? 1 : 0)
                               : Scratch.Block[I];
    hashCombine(Seed, S.NumTrans);
    for (uint32_t T = 0; T != S.NumTrans; ++T) {
      const DetTrans &Tr = Scratch.TransPool[S.TransOff + T];
      hashCombine(Seed, Tr.Fn);
      if (!Initial)
        for (uint32_t K = 0; K != Tr.NumArgs; ++K)
          hashCombine(Seed, Scratch.Block[Scratch.ArgPool[Tr.ArgOff + K]]);
    }
    return static_cast<uint32_t>(Seed ^ (Seed >> 32));
  }

  /// True if states \p I and \p J have equal signatures (see
  /// signatureHash).
  bool sameSignature(uint32_t I, uint32_t J, bool Initial) const {
    const DetState &A = Scratch.States[I];
    const DetState &B = Scratch.States[J];
    if (Initial ? (A.IsAny != B.IsAny || A.HasInt != B.HasInt)
                : Scratch.Block[I] != Scratch.Block[J])
      return false;
    if (A.NumTrans != B.NumTrans)
      return false;
    for (uint32_t T = 0; T != A.NumTrans; ++T) {
      const DetTrans &TA = Scratch.TransPool[A.TransOff + T];
      const DetTrans &TB = Scratch.TransPool[B.TransOff + T];
      if (TA.Fn != TB.Fn)
        return false;
      if (!Initial)
        for (uint32_t K = 0; K != TA.NumArgs; ++K)
          if (Scratch.Block[Scratch.ArgPool[TA.ArgOff + K]] !=
              Scratch.Block[Scratch.ArgPool[TB.ArgOff + K]])
            return false;
    }
    return true;
  }

  /// One partition round: numbers the distinct signatures in first-
  /// occurrence order into Scratch.NextBlock (BlockRep[b] is the first
  /// state of block b) and returns the block count.
  uint32_t partitionRound(bool Initial) {
    const uint32_t N = static_cast<uint32_t>(Scratch.States.size());
    DenseIdTable &Blocks = Scratch.Blocks;
    Blocks.reset(N);
    Scratch.BlockRep.clear();
    for (uint32_t I = 0; I != N; ++I) {
      uint32_t Hash = signatureHash(I, Initial);
      uint32_t B = Blocks.find(Hash, [&](uint32_t Cand) {
        return sameSignature(I, Scratch.BlockRep[Cand], Initial);
      });
      if (B == DenseIdTable::NotFound) {
        B = Blocks.insert(Hash);
        Scratch.BlockRep.push_back(I);
      }
      Scratch.NextBlock[I] = B;
    }
    Scratch.Block.swap(Scratch.NextBlock);
    return Blocks.size();
  }

  /// Merges language-equivalent states (Myhill-Nerode partition
  /// refinement on the deterministic automaton). Keeps the graphs the
  /// analysis manipulates canonical and small — the paper's central
  /// engineering concern. Refinement only splits blocks, so a discrete
  /// partition (the common case: most automata here are already
  /// minimal) ends the run without touching the states; otherwise the
  /// first state of each block is moved to the block's index and its
  /// argument ids are rewritten in place.
  uint32_t minimize(uint32_t Root) {
    const uint32_t N = static_cast<uint32_t>(Scratch.States.size());
    Scratch.Block.resize(N);
    Scratch.NextBlock.resize(N);
    uint32_t NumBlocks = partitionRound(/*Initial=*/true);
    while (NumBlocks != N) {
      // One refinement round touches every state; on a large automaton
      // the rounds-until-stable tail is the other place a deadline can
      // silently burn.
      if (Opts.Cancel)
        Opts.Cancel->poll();
      uint32_t Next = partitionRound(/*Initial=*/false);
      if (Next == NumBlocks)
        break;
      NumBlocks = Next;
    }
    if (NumBlocks == N)
      return Root;
    // Block ids are first-occurrence ordered, so BlockRep[B] >= B and
    // moving representatives up in increasing B never overwrites one
    // that is still to be moved.
    for (uint32_t B = 0; B != NumBlocks; ++B) {
      DetState S = Scratch.States[Scratch.BlockRep[B]];
      for (uint32_t T = 0; T != S.NumTrans; ++T) {
        const DetTrans &Tr = Scratch.TransPool[S.TransOff + T];
        for (uint32_t K = 0; K != Tr.NumArgs; ++K) {
          uint32_t &A = Scratch.ArgPool[Tr.ArgOff + K];
          A = Scratch.Block[A];
        }
      }
      Scratch.States[B] = S;
    }
    Scratch.States.resize(NumBlocks);
    return Scratch.Block[Root];
  }

  uint32_t addTreeNode(NodeKind Kind, FunctorId Fn, uint32_t NumSuccs) {
    uint32_t Id = static_cast<uint32_t>(Scratch.Tree.size());
    uint32_t Off = static_cast<uint32_t>(Scratch.TreeSuccs.size());
    Scratch.Tree.push_back({Kind, Fn, Off, NumSuccs});
    Scratch.TreeSuccs.resize(Off + NumSuccs);
    return Id;
  }

  /// Unfolds state \p St depth-first into Scratch.Tree and returns its
  /// or-vertex: a tree whose only non-tree edges point back to
  /// or-vertices on the current root path. Created counts vertices in
  /// the order the unfolding historically allocated them (an or-vertex
  /// before its alternatives, a functor vertex after its arguments),
  /// which is what the MaxNodes bound is measured in.
  uint32_t unfold(uint32_t St) {
    if (Scratch.OnPath[St] != InvalidNode)
      return Scratch.OnPath[St]; // back edge to an ancestor or-vertex
    const DetState State = Scratch.States[St];
    ++Created;
    if (State.IsAny || Created > Opts.MaxNodes ||
        (Opts.MaxDepth != 0 && Depth >= Opts.MaxDepth)) {
      // A defensive-bound collapse (node or depth budget) loses the
      // certificate: re-normalizing the truncated result may merge the
      // states the truncation made equivalent.
      if (!State.IsAny)
        Truncated = true;
      uint32_t Or = addTreeNode(NodeKind::Or, InvalidFunctor, 1);
      ++Created;
      Scratch.TreeSuccs[Scratch.Tree[Or].SuccOff] =
          addTreeNode(NodeKind::Any, InvalidFunctor, 0);
      return Or;
    }
    uint32_t Or = addTreeNode(NodeKind::Or, InvalidFunctor,
                              State.NumTrans + (State.HasInt ? 1 : 0));
    const uint32_t OrSuccs = Scratch.Tree[Or].SuccOff;
    Scratch.OnPath[St] = Or;
    ++Depth;
    // Transitions are in functor-rank order; Int sits at the rank of
    // the reserved '$int' functor among them (ahead of an equal rank).
    uint32_t IntPos = State.NumTrans;
    if (State.HasInt) {
      uint32_t IntRank = Syms.functorRank(Syms.intFunctor());
      IntPos = 0;
      while (IntPos != State.NumTrans &&
             Syms.functorRank(
                 Scratch.TransPool[State.TransOff + IntPos].Fn) < IntRank)
        ++IntPos;
      ++Created;
      Scratch.TreeSuccs[OrSuccs + IntPos] =
          addTreeNode(NodeKind::Int, InvalidFunctor, 0);
    }
    for (uint32_t T = 0; T != State.NumTrans; ++T) {
      const DetTrans Tr = Scratch.TransPool[State.TransOff + T];
      uint32_t Fn = addTreeNode(NodeKind::Func, Tr.Fn, Tr.NumArgs);
      const uint32_t FnSuccs = Scratch.Tree[Fn].SuccOff;
      for (uint32_t K = 0; K != Tr.NumArgs; ++K) {
        uint32_t Arg = unfold(Scratch.ArgPool[Tr.ArgOff + K]);
        Scratch.TreeSuccs[FnSuccs + K] = Arg;
      }
      ++Created;
      Scratch.TreeSuccs[OrSuccs + T + (T >= IntPos ? 1 : 0)] = Fn;
    }
    --Depth;
    Scratch.OnPath[St] = InvalidNode;
    return Or;
  }

  /// Emits the unfolded tree rooted at \p TreeRoot as a graph numbered in
  /// breadth-first order — the canonical numbering compact() produces —
  /// reserved to its exact size. Back edges target ancestors, which the
  /// BFS has always numbered already.
  TypeGraph emit(uint32_t TreeRoot) {
    std::vector<uint32_t> &Queue = Scratch.Queue;
    std::vector<uint32_t> &OutId = Scratch.OutId;
    const uint32_t Size = static_cast<uint32_t>(Scratch.Tree.size());
    OutId.assign(Size, InvalidNode);
    Queue.clear();
    Queue.push_back(TreeRoot);
    OutId[TreeRoot] = 0;
    TypeGraph Out;
    Out.reserveNodes(Size);
    for (size_t Head = 0; Head != Queue.size(); ++Head) {
      const TreeNode N = Scratch.Tree[Queue[Head]];
      SuccList Succs;
      Succs.reserve(N.NumSuccs);
      for (uint32_t K = 0; K != N.NumSuccs; ++K) {
        uint32_t C = Scratch.TreeSuccs[N.SuccOff + K];
        if (OutId[C] == InvalidNode) {
          OutId[C] = static_cast<uint32_t>(Queue.size());
          Queue.push_back(C);
        }
        Succs.push_back(OutId[C]);
      }
      switch (N.Kind) {
      case NodeKind::Any:
        Out.addAny();
        break;
      case NodeKind::Int:
        Out.addInt();
        break;
      case NodeKind::Func:
        Out.addFunc(N.Fn, std::move(Succs));
        break;
      case NodeKind::Or:
        Out.addOr(std::move(Succs));
        break;
      }
    }
    assert(Out.numNodes() == Size && "the unfolded tree is connected");
    Out.setRoot(0);
    return Out;
  }

  TypeGraph finish(uint32_t Root) {
    computeProductivity();
    if (!Scratch.States[Root].Productive)
      return TypeGraph::makeBottom();
    Root = minimize(Root);
    Scratch.Tree.clear();
    Scratch.TreeSuccs.clear();
    Scratch.OnPath.assign(Scratch.States.size(), InvalidNode);
    TypeGraph Result = emit(unfold(Root));
#ifndef NDEBUG
    std::string Why;
    assert(Result.validate(Syms, &Why) && "normalization must restore all "
                                          "restrictions");
#endif
    // Certify the result: a second normalization under the same options
    // would reproduce it, unless a defensive unfold bound fired (the
    // or-cap is applied before minimization and is idempotent).
    if (!Truncated)
      Result.markNormalized(Opts.OrCap, Opts.MaxNodes, Opts.MaxDepth);
    return Result;
  }

  const TypeGraph &G;
  const SymbolTable &Syms;
  const NormalizeOptions &Opts;
  NormalizeScratch &Scratch;
  bool Truncated = false;
  /// Unfolding counters: vertices created so far, or-vertices on the
  /// current root path.
  uint32_t Created = 0;
  uint32_t Depth = 0;
};

/// Exact subset construction (worklist based): language-preserving.
class Determinizer : public DetBuilderBase {
public:
  using DetBuilderBase::DetBuilderBase;

  TypeGraph run(const NodeId *Start, size_t NumStart) {
    uint32_t Root = stateFor(Start, NumStart);
    drainWorklist();
    return finish(Root);
  }

  GrammarAutomaton automaton(NodeId Start) {
    uint32_t Root = stateFor(&Start, 1);
    drainWorklist();
    computeProductivity();
    GrammarAutomaton A;
    if (!Scratch.States[Root].Productive) {
      A.Empty = true;
      return A;
    }
    Root = minimize(Root);
    // Keep only states reachable from the root, numbered in discovery
    // order of a LIFO walk.
    std::vector<uint32_t> &Remap = Scratch.OutId;
    std::vector<uint32_t> &Work = Scratch.Queue;
    Remap.assign(Scratch.States.size(), ~0u);
    Work.assign(1, Root);
    Remap[Root] = 0;
    A.States.emplace_back();
    while (!Work.empty()) {
      uint32_t S = Work.back();
      Work.pop_back();
      const DetState St = Scratch.States[S];
      GrammarAutomaton::State Out;
      Out.IsAny = St.IsAny;
      Out.HasInt = St.HasInt;
      for (uint32_t T = 0; T != St.NumTrans; ++T) {
        const DetTrans Tr = Scratch.TransPool[St.TransOff + T];
        auto &[Fn, NewArgs] = Out.Trans.emplace_back();
        Fn = Tr.Fn;
        for (uint32_t K = 0; K != Tr.NumArgs; ++K) {
          uint32_t Arg = Scratch.ArgPool[Tr.ArgOff + K];
          if (Remap[Arg] == ~0u) {
            Remap[Arg] = static_cast<uint32_t>(A.States.size());
            A.States.emplace_back();
            Work.push_back(Arg);
          }
          NewArgs.push_back(Remap[Arg]);
        }
      }
      A.States[Remap[S]] = std::move(Out);
    }
    A.Root = 0;
    return A;
  }

private:
  void drainWorklist() {
    // Worklist ids are assigned densely, so the list is just "next state
    // to process": every state >= Cursor still needs its transitions.
    while (Cursor != Scratch.States.size()) {
      uint32_t Id = Cursor++;
      // The subset construction is the one normalization phase with no
      // a-priori size bound (state count can be exponential in the input
      // before a cap fires), so this is where a deadline-carrying job
      // polls between the engine's per-round checkpoints.
      if (Opts.Cancel && (Id & 63u) == 0)
        Opts.Cancel->poll();
      computeTransitions(Id, [this](const NodeId *Roots, size_t N) {
        return stateFor(Roots, N);
      });
    }
  }

  uint32_t stateFor(const NodeId *Roots, size_t NumRoots) {
    closureKey(G, Roots, NumRoots, Scratch);
    uint32_t Hash = hashKey(Scratch.KeyBuf.data(), Scratch.KeyBuf.size());
    uint32_t Id = findState(Hash);
    return Id != DenseIdTable::NotFound ? Id : addState(Hash);
  }

  uint32_t Cursor = 0;
};

/// The collapsing union used by the widening's replacement rule: a DFS
/// subset construction that reuses an *ancestor* state whenever the new
/// state's constituents are a subset of the ancestor's. This is the
/// paper's "variant of the union operation which avoids creating
/// or-vertices which would lead to a growth in size": reusing the
/// ancestor over-approximates (the ancestor's language contains the
/// state's) and ties the recursion into a cycle instead of unrolling.
class Collapser : public DetBuilderBase {
public:
  using DetBuilderBase::DetBuilderBase;

  TypeGraph run(const std::vector<NodeId> &Start) {
    closureKey(G, Start.data(), Start.size(), Scratch);
    return finish(stateFor());
  }

private:
  /// The state for the key in Scratch.KeyBuf.
  uint32_t stateFor() {
    const std::vector<NodeId> &Key = Scratch.KeyBuf;
    uint32_t Hash = hashKey(Key.data(), Key.size());
    uint32_t Found = findState(Hash);
    if (Found != DenseIdTable::NotFound)
      return Found;
    // Collapse into an ancestor whose constituents cover this state.
    for (auto PIt = Scratch.PathStates.rbegin(),
              PEnd = Scratch.PathStates.rend();
         PIt != PEnd; ++PIt) {
      const DetState &Anc = Scratch.States[*PIt];
      const NodeId *AncKey = Scratch.KeyPool.data() + Anc.KeyOff;
      if (Anc.KeyLen == 1 && AncKey[0] == AnyMarker)
        return *PIt; // Any covers everything
      if (std::includes(AncKey, AncKey + Anc.KeyLen, Key.begin(), Key.end()))
        return *PIt;
    }
    // The key moves into the pool: the recursion below clobbers KeyBuf.
    uint32_t Id = addState(Hash);
    // Same rationale as Determinizer::drainWorklist: state creation is
    // the unbounded dimension of the collapsing construction.
    if (Opts.Cancel && (Id & 63u) == 0)
      Opts.Cancel->poll();
    Scratch.PathStates.push_back(Id);
    computeTransitions(Id, [this](const NodeId *Roots, size_t N) {
      closureKey(G, Roots, N, Scratch);
      return stateFor();
    });
    Scratch.PathStates.pop_back();
    return Id;
  }
};

} // namespace

TypeGraph gaia::normalizeGraph(const TypeGraph &G, const SymbolTable &Syms,
                               const NormalizeOptions &Opts,
                               NormalizeScratch *Scratch) {
  if (G.root() == InvalidNode)
    return TypeGraph::makeBottom();
  // A certified graph is a fixed point of this pipeline for these
  // options: copying it (certificate and interner caches included) is
  // exactly what the full construction would rebuild.
  if (G.isNormalizedFor(Opts.OrCap, Opts.MaxNodes, Opts.MaxDepth))
    return G;
  // Chaos probe after the certificate fast path: only normalizations
  // that actually run the determinizer can fault.
  GAIA_FAULT_POINT(Normalize);
  NodeId Root = G.root();
  return Determinizer(G, Syms, Opts, scratchOr(Scratch)).run(&Root, 1);
}

TypeGraph gaia::normalizeFrom(const TypeGraph &G,
                              const std::vector<NodeId> &Start,
                              const SymbolTable &Syms,
                              const NormalizeOptions &Opts,
                              NormalizeScratch *Scratch) {
  if (Start.empty())
    return TypeGraph::makeBottom();
  return Determinizer(G, Syms, Opts, scratchOr(Scratch))
      .run(Start.data(), Start.size());
}

TypeGraph gaia::collapsingUnionFrom(const TypeGraph &G,
                                    const std::vector<NodeId> &Start,
                                    const SymbolTable &Syms,
                                    const NormalizeOptions &Opts,
                                    NormalizeScratch *Scratch) {
  if (Start.empty())
    return TypeGraph::makeBottom();
  return Collapser(G, Syms, Opts, scratchOr(Scratch)).run(Start);
}

GrammarAutomaton gaia::buildAutomaton(const TypeGraph &G,
                                      const SymbolTable &Syms,
                                      NormalizeScratch *Scratch) {
  if (G.root() == InvalidNode || G.isBottomGraph()) {
    GrammarAutomaton A;
    A.Empty = true;
    return A;
  }
  NormalizeOptions Opts;
  return Determinizer(G, Syms, Opts, scratchOr(Scratch)).automaton(G.root());
}
