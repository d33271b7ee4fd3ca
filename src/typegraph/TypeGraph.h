//===- typegraph/TypeGraph.h - Type graphs (disjunctive rational trees) ---==//
///
/// \file
/// Type graphs in the sense of Bruynooghe & Janssens as used by Van
/// Hentenryck, Cortesi & Le Charlier, "Type Analysis of Prolog Using Type
/// Graphs" (PLDI'94 / JLP'95), Section 6.
///
/// A type graph is a rooted directed graph whose vertices are:
///   - any-vertices   (denote the set of all terms),
///   - int-vertices   (denote all integers; the paper's "more types (e.g.
///                     Integer) can be added easily" extension),
///   - functor-vertices f/n (denote terms f(t1..tn) with ti in the i-th
///                     successor's denotation),
///   - or-vertices    (denote the union of their successors' denotations).
///
/// The analyzer keeps graphs in the paper's *cosmetic restrictions*:
///   Flip-Flop, Or-Cycle, No-Sharing, Isolated-Any, and the (expressive)
///   Principal-Functor restriction; `validate` checks all of them and
///   `normalizeGraph` (typegraph/Normalize.h) re-establishes them.
///
/// Graphs are value types: nodes live in a vector and refer to each other
/// by dense 32-bit ids, so no manual memory management is needed (the
/// awkward part of the original C system). Successor lists use inline
/// small-buffer storage (or- and functor-arity is almost always <= 2 on
/// the Section 9 programs). The node vector itself is *copy-on-write*:
/// copying a graph bumps a reference count, and the first mutation of a
/// shared graph detaches a private clone. The analysis engine moves
/// thousands of graph values per clause iteration (substitution frames,
/// memo tables, cache lookups returning canonical representatives), and
/// virtually none of them are ever mutated — under COW they all share
/// one allocation. Mutation detaches, so values keep value semantics;
/// concurrently shared frozen-tier graphs are never mutated in place
/// (a worker's copy detaches before writing).
///
/// A graph additionally carries *derived-result caches* that mutation
/// invalidates and copies preserve:
///   - a normalization certificate (`isNormalizedFor`) recording the
///     NormalizeOptions the graph is known to satisfy, letting
///     re-normalization of an already-canonical graph short-circuit;
///   - the BFS-structural signature (`support/GraphInterner.h`), so
///     hash-consing the same value repeatedly does not re-walk the graph;
///   - the interner's (epoch, canonical id) pair, making repeat interning
///     of a cached value O(1);
///   - a *topology cache* (`topology`): BFS depth/parent/order, nearest
///     or-ancestor links, and one interned pf-set id per vertex
///     (support/PfSetInterner.h), so the Section 7 widening — which used
///     to rebuild all of this on every call — reuses one immutable
///     snapshot shared by every copy of the value.
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_TYPEGRAPH_TYPEGRAPH_H
#define GAIA_TYPEGRAPH_TYPEGRAPH_H

#include "support/SmallVector.h"
#include "support/StringInterner.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace gaia {

class PfSetInterner;      // support/PfSetInterner.h
struct NormalizeOptions; // typegraph/Normalize.h

/// Dense id of a vertex inside one TypeGraph.
using NodeId = uint32_t;
constexpr NodeId InvalidNode = ~0u;

/// Successor list of a vertex: inline up to 2 entries (the dominant or-
/// degree and functor arity), heap beyond.
using SuccList = SmallVector<NodeId, 2>;

/// Vertex kinds. `Any` and `Int` are leaves; `Func` carries a functor and
/// has one successor per argument; `Or` is a disjunction.
enum class NodeKind : uint8_t { Any, Int, Func, Or };

/// One vertex of a type graph.
struct TGNode {
  NodeKind Kind = NodeKind::Any;
  /// Functor, valid iff Kind == Func.
  FunctorId Fn = InvalidFunctor;
  /// Ordered successors. Empty for Any/Int. For Func: one per argument.
  /// For Or: the alternatives (sorted by functor name; see
  /// TypeGraph::sortOrSuccessors).
  SuccList Succs;
};

/// A rooted type graph. See file comment.
class TypeGraph {
public:
  TypeGraph() = default;

  /// Adds an any-vertex and returns its id.
  NodeId addAny();
  /// Adds an int-vertex and returns its id.
  NodeId addInt();
  /// Adds a functor-vertex \p Fn with argument or-vertices \p Args.
  NodeId addFunc(FunctorId Fn, SuccList Args);
  /// Adds an or-vertex with alternatives \p Alts.
  NodeId addOr(SuccList Alts);

  void setRoot(NodeId Root) {
    invalidateDerived();
    RootId = Root;
  }
  NodeId root() const { return RootId; }

  const TGNode &node(NodeId Id) const {
    assert(NodesP && Id < NodesP->size() && "node id out of range");
    return (*NodesP)[Id];
  }
  /// Mutable vertex access. Conservatively drops the derived-result
  /// caches, and detaches the node storage if it is shared with other
  /// values: callers that take a mutable reference are editing
  /// structure. The reference is invalidated by any later mutation of
  /// the graph (detach or growth) — do not hold it across one.
  TGNode &node(NodeId Id) {
    assert(NodesP && Id < NodesP->size() && "node id out of range");
    invalidateDerived();
    return mutableNodes()[Id];
  }

  uint32_t numNodes() const {
    return NodesP ? static_cast<uint32_t>(NodesP->size()) : 0;
  }

  /// Reserves storage for \p N vertices (does not invalidate caches;
  /// detaches shared storage).
  void reserveNodes(uint32_t N) { mutableNodes().reserve(N); }

  /// True if the graph denotes the empty set *syntactically*: the root is
  /// an or-vertex without successors. (The paper forbids empty or-vertices;
  /// we use exactly one, the root of the canonical bottom graph.)
  bool isBottomGraph() const {
    if (RootId == InvalidNode)
      return true;
    const TGNode &Root = node(RootId);
    return Root.Kind == NodeKind::Or && Root.Succs.empty();
  }

  /// The canonical empty graph.
  static TypeGraph makeBottom();
  /// The canonical graph denoting all terms: an or-root with an any-leaf.
  static TypeGraph makeAny();
  /// The canonical graph denoting all integers.
  static TypeGraph makeInt();
  /// Or-root over f(Any,...,Any).
  static TypeGraph makeFunctorOfAny(const SymbolTable &Syms, FunctorId Fn);
  /// The canonical list graph  T ::= [] | cons(Any, T), used by input
  /// pattern specs and tag checks, built directly in normalization's
  /// output form (breadth-first numbering, sorted alternatives). With
  /// \p CertifyFor it carries the certificate for those options when
  /// normalization under them reproduces it: an or-cap of 0 or at least
  /// 2 (the root has or-degree 2) and a node budget the five vertices
  /// fit in.
  static TypeGraph makeAnyList(SymbolTable &Syms,
                               const NormalizeOptions *CertifyFor = nullptr);

  /// Breadth-first topology of the reachable part: depth (root = 1, as in
  /// the paper where depth is the length of the shortest path), BFS tree
  /// parent, and the BFS order. Unreachable nodes get Depth = 0 and
  /// Parent = InvalidNode.
  struct Topology {
    std::vector<uint32_t> Depth;
    std::vector<NodeId> Parent;
    std::vector<NodeId> BfsOrder;
  };
  Topology computeTopology() const;

  /// The mutation-invalidated, copy-preserved topology snapshot used by
  /// the widening fast path: the BFS topology plus, per vertex, the BFS
  /// position (the canonical ordering compact() numbers by), the nearest
  /// strict or-ancestor along BFS-tree parents, and the interned pf-set
  /// id (or-vertices only; InvalidPfSet elsewhere). PfEpoch tags which
  /// interner the ids belong to.
  struct TopoCache {
    Topology Topo;
    /// Node -> position in Topo.BfsOrder (~0u for unreachable nodes).
    std::vector<uint32_t> BfsPos;
    /// Node -> nearest strict or-vertex ancestor via tree parents
    /// (InvalidNode at the root / for unreachable nodes).
    std::vector<NodeId> OrAnc;
    /// Node -> interned pf-set id; InvalidPfSet for non-or vertices.
    std::vector<uint32_t> Pf;
    uint64_t PfEpoch = 0;
  };

  /// Returns the cached topology, building it on first use (or when the
  /// cached pf-set ids belong to an interner \p Pf does not honor). The
  /// snapshot is immutable and shared by copies of this value, so
  /// rebuilds replace the pointer — they never mutate the pointee, which
  /// concurrent readers of a frozen shared tier may hold.
  const TopoCache &topology(const SymbolTable &Syms, PfSetInterner &Pf) const;

  /// The cached topology if one is present (for readers that can cope
  /// with a miss, e.g. sizeMetric), else null.
  const TopoCache *topoCacheIfPresent() const { return Topo.get(); }

  /// The one implementation of the BFS + or-ancestor + pf-set assembly,
  /// shared by topology() (filling the per-graph cache) and the
  /// widening's scratch arrays (typegraph/Widening.cpp) — the two sides
  /// of the correspondence walk must compute these identically, so they
  /// must not have separate copies that can drift. Returns true if
  /// every interned pf id lies in \p Pf's shared tier.
  bool fillTopology(const SymbolTable &Syms, PfSetInterner &Pf,
                    Topology &Topo, std::vector<uint32_t> &BfsPos,
                    std::vector<NodeId> &OrAnc,
                    std::vector<uint32_t> &PfIds) const;

  /// Principal-functor set of a vertex (paper Section 6.3): functors of the
  /// functor-successors of an or-vertex, {f} for a functor-vertex f, and
  /// the empty set for any-vertices. An Int successor contributes the
  /// reserved '$int' pseudo-functor. The result is sorted.
  std::vector<FunctorId> pfSet(NodeId Id, const SymbolTable &Syms) const;

  /// Sorts the successors of every or-vertex by (functor name, arity),
  /// with any-vertices first and int-vertices via their '$int' name. The
  /// paper assumes this order for the correspondence relation. Uses the
  /// symbol table's memoized functor ranks, so a comparison is two
  /// integer loads instead of a string compare.
  void sortOrSuccessors(const SymbolTable &Syms);

  /// Returns a copy containing only the nodes reachable from the root,
  /// renumbered in BFS order (a deterministic canonical numbering).
  TypeGraph compact() const;

  /// Paper's size(g): number of reachable vertices plus edges.
  uint64_t sizeMetric() const;

  /// Checks all cosmetic restrictions plus the principal-functor
  /// restriction and successor sortedness. On failure returns false and,
  /// if \p Why is non-null, stores a diagnostic.
  bool validate(const SymbolTable &Syms, std::string *Why = nullptr) const;

  //===--------------------------------------------------------------------//
  // Derived-result caches. All are invalidated by any mutation and
  // preserved by copies/moves, so a canonical graph handed out by the
  // interner keeps its certificate and ids through the value plumbing.
  //===--------------------------------------------------------------------//

  /// Records that this graph is an output of normalization under the
  /// given option values (or one of the canonical constructors, which
  /// are normalized under *any* options — pass OptionIndependent).
  enum class NormScope : uint8_t { ForOptions, OptionIndependent };
  void markNormalized(uint32_t OrCap, uint32_t MaxNodes, uint32_t MaxDepth,
                      NormScope Scope = NormScope::ForOptions) {
    NormValid = true;
    NormUniversal = Scope == NormScope::OptionIndependent;
    NormOrCap = OrCap;
    NormMaxNodes = MaxNodes;
    NormMaxDepth = MaxDepth;
  }
  /// True if the graph is certified canonical for these option values,
  /// i.e. normalizeGraph with them would reproduce it structurally.
  bool isNormalizedFor(uint32_t OrCap, uint32_t MaxNodes,
                       uint32_t MaxDepth) const {
    return NormValid &&
           (NormUniversal || (NormOrCap == OrCap && NormMaxNodes == MaxNodes &&
                              NormMaxDepth == MaxDepth));
  }
  /// True if the graph carries a certificate for *any* option values. A
  /// certified graph is the canonical unfold of its own language's
  /// minimal automaton (options only decide which language that is), so
  /// two certified graphs denote the same language iff they are
  /// structurally equal — what GraphInterner's keyless path relies on.
  bool hasNormCertificate() const { return NormValid; }

  /// Cached BFS-structural signature (see support/GraphInterner.h). The
  /// mutators clear it; structuralHash fills it on first use.
  bool structSigValid() const { return SigValid; }
  uint64_t structSig() const { return Sig; }
  void setStructSig(uint64_t S) const {
    Sig = S;
    SigValid = true;
  }

  /// Cached (interner epoch, canonical id): a graph that has been
  /// interned remembers its id, so re-interning the same value — the
  /// single hottest operation of the cached analysis — is a tag compare.
  /// The scheme is tier-aware: epochs are drawn from one process-wide
  /// counter shared by live interners and frozen shared tiers
  /// (support/GraphInterner.h), so a cached id can never alias across
  /// tiers — an interner honors exactly its own epoch and (when layered
  /// over a frozen tier) the tier's epoch, whose ids form the dense
  /// prefix of its id space. Values resolved against a frozen tier are
  /// tagged with the *tier's* epoch, making their ids portable across
  /// every worker sharing that tier.
  uint64_t internEpoch() const { return InternEpoch; }
  uint32_t internId() const { return InternId; }
  void setInternCache(uint64_t Epoch, uint32_t Id) const {
    InternEpoch = Epoch;
    InternId = Id;
  }

  /// Debug-mode staleness audit: recomputes every derived cache this
  /// graph currently carries and checks it against the stored value (the
  /// structural signature against a fresh BFS hash, the topology cache
  /// against a fresh BFS, the normalization certificate against
  /// validate() and — in Debug and GAIA_AUDIT builds — against a
  /// re-normalization of a certificate-free copy, which must reproduce
  /// the graph structurally). A mutator that forgot to invalidate shows
  /// up here as a loud failure instead of a wrong canonical id. Returns
  /// false and fills \p Why on mismatch.
  bool cachesFresh(const SymbolTable &Syms, std::string *Why = nullptr) const;
  void assertCachesFresh(const SymbolTable &Syms) const {
#ifndef NDEBUG
    std::string Why;
    assert(cachesFresh(Syms, &Why) && "stale derived cache");
#else
    (void)Syms;
#endif
  }

private:
  void invalidateDerived() {
    NormValid = false;
    SigValid = false;
    InternEpoch = 0;
    Topo.reset();
  }

  /// Copy-on-write access to the node storage: detaches a private clone
  /// when the vector is shared with other graph values. use_count() == 1
  /// guarantees sole ownership, so in-place mutation is safe even when
  /// other threads hold *other* graphs (they share only via copies,
  /// which detach before writing on their side).
  std::vector<TGNode> &mutableNodes() {
    if (!NodesP)
      NodesP = std::make_shared<std::vector<TGNode>>();
    else if (NodesP.use_count() > 1)
      NodesP = std::make_shared<std::vector<TGNode>>(*NodesP);
    return *NodesP;
  }

  /// Shared node storage (null for the default-constructed empty graph).
  std::shared_ptr<std::vector<TGNode>> NodesP;
  NodeId RootId = InvalidNode;

  /// Normalization certificate.
  bool NormValid = false;
  bool NormUniversal = false;
  uint32_t NormOrCap = 0;
  uint32_t NormMaxNodes = 0;
  uint32_t NormMaxDepth = 0;

  /// Structural signature and interner caches (mutable: filled through
  /// const lookups).
  mutable bool SigValid = false;
  mutable uint64_t Sig = 0;
  mutable uint64_t InternEpoch = 0;
  mutable uint32_t InternId = 0;
  /// Topology snapshot (mutable: filled through const lookups; the
  /// pointee is immutable, copies share it).
  mutable std::shared_ptr<const TopoCache> Topo;
};

/// Key used when comparing or-successors and pf-sets: orders functors by
/// (name, arity); Any sorts first.
struct SuccOrder {
  const SymbolTable &Syms;
  bool operator()(const std::pair<NodeKind, FunctorId> &A,
                  const std::pair<NodeKind, FunctorId> &B) const;
};

} // namespace gaia

#endif // GAIA_TYPEGRAPH_TYPEGRAPH_H
