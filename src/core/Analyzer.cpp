//===- core/Analyzer.cpp ----------------------------------------------------=//

#include "core/Analyzer.h"

#include "domains/PFLeaf.h"
#include "domains/TypeLeaf.h"
#include "runtime/SharedCache.h"
#include "typegraph/GrammarParser.h"

using namespace gaia;

namespace {

/// Builds the [] | cons(Int, T) graph for intlist specs.
static TypeGraph makeIntList(SymbolTable &Syms) {
  TypeGraph G;
  NodeId Nil = G.addFunc(Syms.nilFunctor(), {});
  NodeId HeadLeaf = G.addInt();
  NodeId Head = G.addOr({HeadLeaf});
  NodeId Root = G.addOr({});
  NodeId Cons = G.addFunc(Syms.consFunctor(), {Head, Root});
  G.node(Root).Succs = {Nil, Cons};
  G.setRoot(Root);
  G.sortOrSuccessors(Syms);
  return G;
}

template <typename Leaf>
PatSub<Leaf> makeInputSub(const typename Leaf::Context &C,
                          const InputPattern &P, SymbolTable &Syms) {
  PatSub<Leaf> S = PatSub<Leaf>::top(C, P.arity());
  for (uint32_t I = 0; I != P.arity(); ++I) {
    switch (P.Args[I]) {
    case ArgSpec::Any:
      break;
    case ArgSpec::List:
      S.refineSlot(C, I, Leaf::listValue(C));
      break;
    case ArgSpec::Int:
      S.refineSlot(C, I, Leaf::intValue(C));
      break;
    case ArgSpec::IntList:
      if constexpr (std::is_same_v<Leaf, TypeLeaf>)
        S.refineSlot(C, I, makeIntList(Syms));
      break;
    }
  }
  return S;
}

template <typename Leaf>
void runWithLeaf(AnalysisResult &R, const typename Leaf::Context &C,
                 SymbolTable &Syms, const Program &Prog,
                 const NProgram &NProg, const InputPattern &Pattern,
                 const EngineOptions &EngOpts) {
  FunctorId Entry = Syms.functor(Pattern.PredName, Pattern.arity());
  if (!Prog.defines(Entry)) {
    R.Error = "goal predicate " + Syms.functorString(Entry) +
              " is not defined in the program";
    R.Fail = FailKind::BadQuery;
    return;
  }

  Engine<Leaf> Eng(NProg, C, EngOpts);
  PatSub<Leaf> In = makeInputSub<Leaf>(C, Pattern, Syms);
  PatSub<Leaf> Out = Eng.solve(Entry, In);
  R.Stats = Eng.stats();

  R.QuerySucceeds = !Out.isBottom();
  for (uint32_t I = 0; I != Pattern.arity(); ++I)
    R.QueryOutput.push_back(
        Out.isBottom() ? TypeGraph::makeBottom()
                       : Leaf::toGraph(C, Out.slotValue(C, I)));

  // Per-predicate summaries: lub over all memo tuples.
  auto Tuples = Eng.tuples();
  for (const Procedure &P : Prog.procedures()) {
    PredicateSummary S;
    S.Name = Syms.functorName(P.Fn);
    S.Arity = Syms.functorArity(P.Fn);
    S.NumClauses = static_cast<uint32_t>(P.Clauses.size());
    PatSub<Leaf> InLub = PatSub<Leaf>::bottom(S.Arity);
    PatSub<Leaf> OutLub = PatSub<Leaf>::bottom(S.Arity);
    for (const auto &T : Tuples) {
      if (T.Pred != P.Fn)
        continue;
      ++S.NumTuples;
      InLub = PatSub<Leaf>::join(C, InLub, T.In);
      OutLub = PatSub<Leaf>::join(C, OutLub, T.Out);
    }
    for (uint32_t I = 0; I != S.Arity; ++I) {
      ArgInfo AIn, AOut;
      AIn.Graph = InLub.isBottom()
                      ? TypeGraph::makeBottom()
                      : Leaf::toGraph(C, InLub.slotValue(C, I));
      AOut.Graph = OutLub.isBottom()
                       ? TypeGraph::makeBottom()
                       : Leaf::toGraph(C, OutLub.slotValue(C, I));
      AIn.Tag = tagForGraph(AIn.Graph, Syms);
      AOut.Tag = tagForGraph(AOut.Graph, Syms);
      S.Input.push_back(std::move(AIn));
      S.Output.push_back(std::move(AOut));
    }
    R.Summaries.push_back(std::move(S));
  }
  R.Ok = true;
}

/// The common driver behind analyzeProgram and analyzeProgramWarm.
/// \p SymsPtr is the table the run interns into (owning for cold runs,
/// a snapshot copy for shared-tier runs, non-owning alias for warmup).
/// \p ExternalOps, when set, is an accumulating cache owned by the
/// caller (warmup); otherwise a per-run cache is constructed — over
/// \p Shared's frozen tier when that is non-null.
AnalysisResult analyzeImpl(std::shared_ptr<SymbolTable> SymsPtr,
                           OpCache *ExternalOps, const SharedCache *Shared,
                           const std::string &Source,
                           const std::string &GoalSpec,
                           const AnalyzerOptions &Opts) {
  AnalysisResult R;
  R.Syms = std::move(SymsPtr);
  SymbolTable &Syms = *R.Syms;

  std::string Err;
  std::optional<InputPattern> Pattern = parseInputPattern(GoalSpec, &Err);
  if (!Pattern) {
    R.Error = Err;
    R.Fail = FailKind::BadQuery;
    return R;
  }
  uint32_t ErrLine = 0;
  std::optional<Program> Prog = Program::parse(Source, Syms, &Err, &ErrLine);
  if (!Prog) {
    R.Error = Err;
    R.Fail = FailKind::ParseError;
    R.FailLine = ErrLine;
    return R;
  }
  NProgram NProg = NProgram::fromProgram(*Prog, Syms);
  for (FunctorId Fn : NProg.unknownPredicates())
    R.UnknownPredicates.push_back(Syms.functorString(Fn));

  FunctorId Entry = Syms.functor(Pattern->PredName, Pattern->arity());
  // One call graph serves both metric tables: the Table 1 static call
  // tree and the Table 2 SCC classification.
  CallGraph CG(*Prog, Syms);
  R.Sizes = computeSizeMetrics(*Prog, NProg, Syms, Entry, CG);
  R.Recursion = classifyRecursion(*Prog, Syms, CG);

  // The job's combined stop condition: the deadline clock starts here
  // (analysis proper — parse errors above return before arming), the
  // token comes from the caller. The signal lives on this frame and is
  // handed down by raw pointer; a tripped poll unwinds back to the
  // handler below with every per-job structure (engine, private op
  // cache, scratch) destroyed on the way — the shared tier is frozen,
  // so nothing the job touched survives.
  CancelSignal Signal;
  if (Opts.DeadlineMs != 0)
    Signal.armDeadline(CancelSignal::Clock::now() +
                       std::chrono::milliseconds(Opts.DeadlineMs));
  if (Opts.Cancel)
    Signal.armToken(Opts.Cancel);

  EngineOptions EngOpts;
  EngOpts.RefineArithComparisons = Opts.RefineArithComparisons;
  EngOpts.MaxInputPatterns = Opts.MaxInputPatterns;
  EngOpts.MaxFixpointRounds = Opts.MaxFixpointRounds;
  if (Signal.armed())
    EngOpts.Cancel = &Signal;
  try {
    if (Opts.Domain == DomainKind::TypeGraphs) {
      NormalizeOptions Norm;
      Norm.OrCap = Opts.OrCap;
      // Inner poll points: one normalization of a blown-up graph can
      // otherwise burn a whole deadline between two engine-round
      // checkpoints. The signal outlives the per-run op cache (both live
      // on this frame), so the raw pointer below cannot dangle.
      Norm.Cancel = EngOpts.Cancel;
      WideningOptions Widen;
      Widen.Norm = Norm;
      Widen.Mode = Opts.Widening;
      Widen.DepthK = Opts.DepthK;
      std::vector<TypeGraph> Database;
      for (const std::string &Grammar : Opts.TypeDatabase) {
        std::optional<TypeGraph> G = parseGrammar(Grammar, Syms, &Err);
        if (!G) {
          R.Error = "type database entry: " + Err;
          R.Fail = FailKind::BadQuery;
          return R;
        }
        Database.push_back(std::move(*G));
      }
      if (!Database.empty())
        Widen.Database = &Database;
      Widen.Cancel = EngOpts.Cancel;
      // The hash-consing interner plus op-cache layer; one per analysis
      // (layered over the shared tier's frozen maps when one is given),
      // shared by the engine and every leaf operation through the context.
      std::optional<OpCache> Owned;
      if (!ExternalOps && Opts.UseOpCache)
        Owned.emplace(Syms, Norm, Shared ? Shared->ops() : nullptr);
      OpCache *Ops = ExternalOps ? ExternalOps : (Owned ? &*Owned : nullptr);
      TypeLeaf::Context C{Syms, Norm, Widen, &R.WStats, Ops,
                          std::make_shared<TypeLeaf::Constants>(), nullptr};
      if (Shared) {
        // Per-job copy of the pre-primed constants (their intern caches
        // carry the frozen tier's epoch), and the keep-alive anchor for
        // everything the frozen tier owns.
        C.Consts =
            std::make_shared<TypeLeaf::Constants>(Shared->leafConstants());
        C.Shared = Opts.Shared;
      }
      runWithLeaf<TypeLeaf>(R, C, Syms, *Prog, NProg, *Pattern, EngOpts);
      if (Ops) {
        R.Stats.OpCacheHits = Ops->stats().Hits;
        R.Stats.OpCacheMisses = Ops->stats().Misses;
        R.Stats.OpCacheSharedHits = Ops->stats().SharedHits;
        const InternStats &IS = Ops->interner().stats();
        R.Stats.InternSharedHits = IS.SharedHits;
        R.Stats.InternStructHits = IS.StructHits;
        R.Stats.InternAutoHits = IS.AutoHits;
        R.Stats.InternMisses = IS.Misses;
        R.Stats.InternKeysBuilt = IS.KeysBuilt;
        R.Stats.InternedGraphs = Ops->interner().size();
        R.Stats.PfSetHits = Ops->pfStats().Hits;
        R.Stats.PfSetMisses = Ops->pfStats().Misses;
        R.Stats.PfSetSharedHits = Ops->pfStats().SharedHits;
      }
    } else {
      PFLeaf::Context C{Syms};
      runWithLeaf<PFLeaf>(R, C, Syms, *Prog, NProg, *Pattern, EngOpts);
    }
  } catch (const CancelledError &CE) {
    // Cooperative cancellation unwound the engine mid-fixpoint. All
    // per-job state died on the unwind (including the private delta
    // cache), so the only residue is this structured result.
    R.Ok = false;
    R.Fail = CE.DeadlineExpired ? FailKind::Deadline : FailKind::Cancelled;
    R.Error = CE.DeadlineExpired
                  ? "deadline of " + std::to_string(Opts.DeadlineMs) +
                        " ms expired mid-analysis"
                  : "cancelled by caller";
    R.Converged = false;
    R.QuerySucceeds = false;
    R.QueryOutput.clear();
    R.Summaries.clear();
    return R;
  }
  R.Converged = R.Stats.FixpointAborts == 0;
  return R;
}

} // namespace

const char *gaia::failKindName(FailKind K) {
  switch (K) {
  case FailKind::None:
    return "none";
  case FailKind::ParseError:
    return "parse-error";
  case FailKind::BadQuery:
    return "bad-query";
  case FailKind::Deadline:
    return "deadline";
  case FailKind::Cancelled:
    return "cancelled";
  case FailKind::Exception:
    return "exception";
  case FailKind::Rejected:
    return "rejected";
  }
  return "unknown";
}

AnalysisResult gaia::analyzeProgram(const std::string &Source,
                                    const std::string &GoalSpec,
                                    const AnalyzerOptions &Opts) {
  // A shared tier is consulted only when every knob that shapes cached
  // results matches the tier's warmup configuration; otherwise the run
  // is simply cold (correctness never depends on the cache).
  const SharedCache *Shared = nullptr;
  if (Opts.Shared && Opts.Domain == DomainKind::TypeGraphs &&
      Opts.UseOpCache && Opts.Shared->compatibleWith(Opts))
    Shared = Opts.Shared.get();
  std::shared_ptr<SymbolTable> Syms =
      Shared ? std::make_shared<SymbolTable>(Shared->symbols())
             : std::make_shared<SymbolTable>();
  return analyzeImpl(std::move(Syms), /*ExternalOps=*/nullptr, Shared,
                     Source, GoalSpec, Opts);
}

AnalysisResult gaia::analyzeProgramWarm(SymbolTable &Syms, OpCache &Ops,
                                        const std::string &Source,
                                        const std::string &GoalSpec,
                                        const AnalyzerOptions &Opts) {
  if (Opts.Domain != DomainKind::TypeGraphs) {
    AnalysisResult R;
    R.Error = "analyzeProgramWarm requires the type-graph domain";
    R.Fail = FailKind::BadQuery;
    return R;
  }
  // Non-owning alias: the caller owns the table across warmup calls.
  std::shared_ptr<SymbolTable> Alias(std::shared_ptr<void>(), &Syms);
  return analyzeImpl(std::move(Alias), &Ops, /*Shared=*/nullptr, Source,
                     GoalSpec, Opts);
}
