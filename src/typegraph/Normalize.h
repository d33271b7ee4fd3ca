//===- typegraph/Normalize.h - Restore the cosmetic restrictions ----------==//
///
/// \file
/// Normalization re-establishes the paper's graph restrictions after a
/// product construction (union, intersection) or any other surgery:
///
///   1. *Determinize*: a subset construction over or-closures merges
///      same-functor alternatives, enforcing the Principal-Functor
///      restriction, Isolated-Any, and Int absorption of integer
///      literals. Unproductive (empty-denotation) states are pruned.
///   2. *Minimize*: Myhill-Nerode partition refinement merges
///      language-equivalent states, so the unfold below is a function of
///      the language alone.
///   3. *Unfold*: the minimal automaton is unfolded into a tree
///      whose only non-tree edges point back to or-vertices on the
///      current root path — exactly Flip-Flop + Or-Cycle + No-Sharing.
///
/// The or-degree cap of Section 9 ("the algorithms are then generalized
/// to replace an or-vertex with too many successors by an any-vertex")
/// is applied during determinization.
///
/// The automata are small (a dozen states on the Section 9 programs), so
/// the cost is set-up, not asymptotics, and the pipeline runs on flat
/// storage in a caller-owned NormalizeScratch that is reused across
/// calls: fixed-size state records indexing one key, one transition and
/// one argument pool; open-addressing id tables cleared by epoch for the
/// state keys and the partition signatures; and a scratch tree that the
/// depth-first unfold fills and a breadth-first pass emits once, already
/// in compact()'s numbering and sortOrSuccessors' order, into an output
/// graph reserved to its exact size. A warm run allocates only that
/// output graph. Results carry a normalization certificate
/// (TypeGraph::markNormalized), so re-normalizing an already-canonical
/// graph is a copy.
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_TYPEGRAPH_NORMALIZE_H
#define GAIA_TYPEGRAPH_NORMALIZE_H

#include "support/DenseIdTable.h"
#include "typegraph/TypeGraph.h"

#include <algorithm>
#include <vector>

namespace gaia {

class CancelSignal; // support/Cancellation.h

/// Tuning knobs for normalization. OrCap = 0 means "unbounded" (the
/// paper's default configuration); 5 and 2 reproduce Table 3's capped
/// rows. MaxNodes is a defensive bound on unfolding: beyond it the
/// remaining structure collapses to Any (a sound over-approximation).
struct NormalizeOptions {
  uint32_t OrCap = 0;
  uint32_t MaxNodes = 100000;
  /// Depth bound (0 = unlimited): or-vertices deeper than this many
  /// or-levels collapse to Any. This is NOT used by the paper's system;
  /// it implements the classic depth-k abstraction used as the
  /// alternative-baseline widening in bench/widening_ablation (Section 7
  /// contrasts the paper's widening against finite-subdomain approaches
  /// of this kind).
  uint32_t MaxDepth = 0;
  /// Optional cooperative stop condition (support/Cancellation.h),
  /// polled inside the subset-construction worklist and the minimizer's
  /// refinement rounds. The engine's per-round checkpoints bound the
  /// fixpoint loops, but one normalization of a blown-up graph can burn
  /// an entire deadline between two such checkpoints — these are the
  /// inner poll points that close that gap. Not part of the
  /// normalization certificate: cancellation never changes a produced
  /// result, it only decides whether one is produced. The pointee must
  /// outlive every normalization run under these options (the analyzer
  /// arms it per job; warm-up and ad-hoc callers leave it null).
  const CancelSignal *Cancel = nullptr;
};

/// Reusable buffers for the normalization pipeline and the graph
/// operations built on it. One instance per analysis (owned by the
/// operation cache / leaf context); passing nullptr to the entry points
/// falls back to a thread-local instance, so ad-hoc callers (tests,
/// examples) stay allocation-correct without owning one. Not re-entrant
/// across threads, and one normalization uses it at a time: the
/// determinizer's automaton, the minimizer's partition and the unfolded
/// tree of the running normalization all live here. Within one
/// normalization the epoch discipline makes the visited marks reusable
/// across sequential traversals (each opens a fresh epoch).
///
/// Every buffer keeps its capacity across runs, so once warm a
/// normalization of a small automaton allocates nothing but its output
/// graph. All cross-references are indices, never pointers: the
/// collapsing construction appends to the pools while it recurses.
class NormalizeScratch {
public:
  /// Opens a new visited-epoch over \p NumNodes node ids and returns the
  /// epoch tag; `mark`/`marked` then cost one array access each.
  uint64_t beginEpoch(uint32_t NumNodes) {
    if (SeenMark.size() < NumNodes)
      SeenMark.resize(NumNodes, 0);
    return ++Epoch;
  }
  bool marked(NodeId V) const { return SeenMark[V] == Epoch; }
  void mark(NodeId V) { SeenMark[V] = Epoch; }

  /// DFS stack of the or-closure expansion (closureKey).
  std::vector<NodeId> Stack;
  /// Closure-key assembly buffer (closureKey output, valid until the
  /// next closureKey call).
  std::vector<NodeId> KeyBuf;

  /// One functor transition of a deterministic state: its argument
  /// states are ArgPool[ArgOff, ArgOff + NumArgs).
  struct DetTrans {
    FunctorId Fn;
    uint32_t ArgOff;
    uint32_t NumArgs;
  };
  /// A deterministic-automaton state of the subset construction, a
  /// fixed-size record: its key (sorted constituent set) is
  /// KeyPool[KeyOff, KeyOff + KeyLen), its transitions, sorted by
  /// functor rank, are TransPool[TransOff, TransOff + NumTrans).
  struct DetState {
    uint32_t KeyOff = 0;
    uint32_t KeyLen = 0;
    uint32_t TransOff = 0;
    uint32_t NumTrans = 0;
    bool IsAny = false;
    bool HasInt = false;
    bool Productive = false;
  };
  std::vector<DetState> States;
  std::vector<NodeId> KeyPool;
  std::vector<DetTrans> TransPool;
  std::vector<uint32_t> ArgPool;
  /// State key -> state id.
  DenseIdTable StateIds;
  /// Collapsing construction: the states on the current DFS path.
  std::vector<uint32_t> PathStates;

  /// Minimizer: state -> block of the current and of the next
  /// refinement round, block -> its first state (the representative
  /// new signatures are compared against), and the signature table.
  std::vector<uint32_t> Block;
  std::vector<uint32_t> NextBlock;
  std::vector<uint32_t> BlockRep;
  DenseIdTable Blocks;

  /// Unfolding: the tree is built depth-first here, then emitted once in
  /// breadth-first order. A tree node's successors are
  /// TreeSuccs[SuccOff, SuccOff + NumSuccs), already in or-successor
  /// order (Any first, then functor rank, Int at the rank of '$int').
  struct TreeNode {
    NodeKind Kind;
    FunctorId Fn;
    uint32_t SuccOff;
    uint32_t NumSuccs;
  };
  std::vector<TreeNode> Tree;
  std::vector<uint32_t> TreeSuccs;
  /// State -> its or-vertex on the current root path (back-edge target),
  /// or InvalidNode.
  std::vector<uint32_t> OnPath;
  /// Breadth-first emission queue and tree node -> output id; also the
  /// reachable-state walk of buildAutomaton.
  std::vector<uint32_t> Queue;
  std::vector<uint32_t> OutId;

private:
  std::vector<uint64_t> SeenMark;
  uint64_t Epoch = 0;
};

/// Returns an equivalent (or minimally over-approximated, if a cap fires)
/// graph satisfying all restrictions, rooted at \p G's root. If \p G
/// carries a normalization certificate for \p Opts the call is a copy.
TypeGraph normalizeGraph(const TypeGraph &G, const SymbolTable &Syms,
                         const NormalizeOptions &Opts = {},
                         NormalizeScratch *Scratch = nullptr);

/// Normalizes the union of the denotations of \p Start inside \p G into a
/// fresh self-contained graph. This is the workhorse behind subgraph
/// extraction (leaf-domain restriction) and the replacement rule of the
/// widening operator.
TypeGraph normalizeFrom(const TypeGraph &G, const std::vector<NodeId> &Start,
                        const SymbolTable &Syms,
                        const NormalizeOptions &Opts = {},
                        NormalizeScratch *Scratch = nullptr);

/// The minimal deterministic automaton equivalent to a graph. Unlike the
/// graph itself (bound by No-Sharing), automaton states are shared, so
/// this is the natural structure for displaying results as tree grammars
/// the way the paper does.
struct GrammarAutomaton {
  struct State {
    bool IsAny = false;
    bool HasInt = false;
    std::vector<std::pair<FunctorId, std::vector<uint32_t>>> Trans;
  };
  std::vector<State> States; ///< only reachable, productive states
  uint32_t Root = 0;
  bool Empty = false; ///< graph denotes the empty set
};

/// Determinizes, prunes and minimizes \p G into its canonical automaton.
GrammarAutomaton buildAutomaton(const TypeGraph &G, const SymbolTable &Syms,
                                NormalizeScratch *Scratch = nullptr);

/// The "variant of the union operation which avoids creating or-vertices
/// which would lead to a growth in size" (Section 7.2.2), used by the
/// widening's replacement rule. Like normalizeFrom, but the subset
/// construction collapses a state into any ancestor state whose
/// constituent set covers it, over-approximating the union while tying
/// recursion into cycles. The result includes the denotations of all
/// \p Start vertices and is usually much smaller than the exact union.
TypeGraph collapsingUnionFrom(const TypeGraph &G,
                              const std::vector<NodeId> &Start,
                              const SymbolTable &Syms,
                              const NormalizeOptions &Opts = {},
                              NormalizeScratch *Scratch = nullptr);

} // namespace gaia

#endif // GAIA_TYPEGRAPH_NORMALIZE_H
