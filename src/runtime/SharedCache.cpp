//===- runtime/SharedCache.cpp ---------------------------------------------=//

#include "runtime/SharedCache.h"

#include <chrono>

using namespace gaia;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// Flat per-entry overhead charged for a hash-map node (bucket slot +
/// node header). A constant, so the estimate is deterministic across
/// allocators and runs.
constexpr uint64_t MapNodeOverhead = 32;

uint64_t graphBytes(const TypeGraph &G) {
  uint64_t B = sizeof(TypeGraph);
  B += uint64_t(G.numNodes()) * sizeof(TGNode);
  for (NodeId V = 0; V != G.numNodes(); ++V)
    if (G.node(V).Succs.size() > 2) // beyond SuccList's inline capacity
      B += G.node(V).Succs.size() * sizeof(NodeId);
  return B;
}

/// Deterministic byte estimate of a frozen tier's resident data. Node
/// storage lives in heap shared_ptr blocks even in audit builds, so
/// arena bytes alone undercount; this walks what the tier actually
/// keeps alive. Stable given the same tier contents.
uint64_t estimateTierBytes(const FrozenOpTier &T) {
  uint64_t B = 0;
  const FrozenInternTier &IT = *T.Intern;
  for (const TypeGraph &G : IT.Canon)
    B += graphBytes(G);
  for (const TypeGraph &G : IT.Aliases)
    B += graphBytes(G);
  for (const auto &[Hash, Entries] : IT.StructBuckets) {
    (void)Hash;
    B += MapNodeOverhead +
         Entries.size() * sizeof(std::pair<const TypeGraph *, CanonId>);
  }
  for (const auto &[Key, Id] : IT.AutoMap) {
    (void)Id;
    B += MapNodeOverhead + Key.size() * sizeof(uint64_t);
  }
  const FrozenPfTier &PT = *T.Pf;
  B += PT.Pool.size() * sizeof(FunctorId);
  B += PT.Sets.size() * sizeof(FrozenPfTier::Entry);
  for (const auto &[Hash, Ids] : PT.Buckets) {
    (void)Hash;
    B += MapNodeOverhead + Ids.size() * sizeof(PfSetId);
  }
  B += T.Incl.size() * (sizeof(std::pair<CanonId, CanonId>) + 1 +
                        MapNodeOverhead);
  B += (T.Union.size() + T.Inter.size() + T.Widen.size()) *
       (sizeof(std::pair<CanonId, CanonId>) + sizeof(CanonId) +
        MapNodeOverhead);
  for (const auto &[Key, Memo] : T.Restrict) {
    (void)Key;
    B += MapNodeOverhead + sizeof(std::pair<CanonId, uint32_t>) +
         sizeof(RestrictMemo) + Memo.Args.size() * sizeof(CanonId);
  }
  for (const auto &[Key, Id] : T.Construct) {
    (void)Id;
    B += MapNodeOverhead + Key.size() * sizeof(uint32_t) + sizeof(CanonId);
  }
  return B;
}

uint64_t arenaBytes(const FrozenOpTier &T) {
  uint64_t B = 0;
  if (T.Arena)
    B += T.Arena->bytesAllocated();
  if (T.Intern->Arena)
    B += T.Intern->Arena->bytesAllocated();
  if (T.Pf->Arena)
    B += T.Pf->Arena->bytesAllocated();
  return B;
}

} // namespace

std::shared_ptr<const SharedCache>
SharedCache::build(const std::vector<AnalysisJob> &Warmup,
                   const AnalyzerOptions &Opts, std::string *Err) {
  auto Fail = [&](const std::string &Why) {
    if (Err)
      *Err = Why;
    return nullptr;
  };
  if (Opts.Domain != DomainKind::TypeGraphs)
    return Fail("shared cache requires the type-graph domain");
  if (!Opts.UseOpCache)
    return Fail("shared cache requires UseOpCache");

  auto Start = std::chrono::steady_clock::now();
  // Cannot use make_shared: the constructor is private.
  std::shared_ptr<SharedCache> SC(new SharedCache());
  SC->BuiltOpts = Opts;
  SC->BuiltOpts.Shared = nullptr;

  // One accumulating table + cache across all warmup jobs; the cache may
  // itself sit on a previous batch's tier (freeze() merges the two).
  // The table must then start from that tier's snapshot so the frozen
  // graphs' functor ids keep meaning the same symbols.
  const SharedCache *Prev = nullptr;
  if (Opts.Shared && Opts.Shared->compatibleWith(Opts))
    Prev = Opts.Shared.get();
  if (Prev)
    SC->Syms = Prev->symbols();
  NormalizeOptions Norm;
  Norm.OrCap = Opts.OrCap;
  OpCache Warm(SC->Syms, Norm, Prev ? Prev->ops() : nullptr);

  AnalyzerOptions WarmOpts = Opts;
  WarmOpts.Shared = nullptr;
  for (const AnalysisJob &Job : Warmup) {
    AnalysisResult R = analyzeProgramWarm(SC->Syms, Warm, Job.Source,
                                          Job.GoalSpec, WarmOpts);
    if (!R.Ok)
      return Fail("warmup job " + Job.Key + ": " + R.Error);
    SC->St.AllConverged = SC->St.AllConverged && R.Converged;
    ++SC->St.WarmupJobs;
  }

  SC->Ops = Warm.freeze();

  // Pre-prime the leaf constants: resolve each against the frozen tier
  // so the cached (epoch, id) pairs survive into every job's copy. A
  // constant whose language the tier does not hold simply stays
  // unprimed (the job's delta interner picks it up on first use).
  SC->Consts.AnyList = TypeGraph::makeAnyList(SC->Syms);
  {
    GraphInterner Primer(SC->Syms, SC->Ops->Intern);
    Primer.intern(SC->Consts.Any);
    Primer.intern(SC->Consts.Int);
    Primer.intern(SC->Consts.Bottom);
    Primer.intern(*SC->Consts.AnyList);
  }

  // Warm the functor-rank memo so every job's snapshot copy starts with
  // valid ranks instead of each recomputing them on first sort.
  if (SC->Syms.numFunctors() != 0)
    SC->Syms.functorRank(0);

  SC->St.Graphs = SC->Ops->Intern->size();
  SC->St.OpResults = SC->Ops->resultCount();
  SC->St.PfSets = SC->Ops->Pf->size();
  SC->St.Symbols = SC->Syms.numSymbols();
  SC->St.TierBytes = estimateTierBytes(*SC->Ops);
  SC->St.ArenaBytes = arenaBytes(*SC->Ops);
  SC->St.WarmupSeconds = secondsSince(Start);
  return SC;
}

bool SharedCache::compatibleWith(const AnalyzerOptions &Opts) const {
  if (Opts.Domain != DomainKind::TypeGraphs || !Opts.UseOpCache)
    return false;
  // Everything that shapes cached graph-operation results must match:
  // the normalization cap and the widening configuration (including the
  // type database the widening may consult). Engine-level knobs
  // (polyvariance cap, fixpoint budget, arithmetic refinement) do not
  // change what a graph operation returns, only which operations run.
  if (Opts.OrCap != BuiltOpts.OrCap)
    return false;
  if (Opts.Widening != BuiltOpts.Widening)
    return false;
  if (Opts.Widening == WidenMode::DepthK && Opts.DepthK != BuiltOpts.DepthK)
    return false;
  return Opts.TypeDatabase == BuiltOpts.TypeDatabase;
}
