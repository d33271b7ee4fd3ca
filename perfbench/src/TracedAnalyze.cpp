//===- perfbench/src/TracedAnalyze.cpp --------------------------------------=//

#include "TracedAnalyze.h"

#include "TracedLeaf.h"

#include "core/InputPattern.h"
#include "core/Tags.h"
#include "gaia/Engine.h"
#include "prolog/CallGraph.h"
#include "prolog/Metrics.h"
#include "prolog/Normalize.h"
#include "prolog/Program.h"
#include "runtime/SharedCache.h"

using namespace gaia;
using namespace perfbench;

namespace {

using Sub = PatSub<TracedLeaf>;

/// The query's input substitution. The benchmark's goals use only any,
/// list and int arguments; intlist is rejected rather than rebuilt here.
bool makeInputSub(const TracedLeaf::Context &C, const InputPattern &P,
                  Sub &S) {
  S = Sub::top(C, P.arity());
  for (uint32_t I = 0; I != P.arity(); ++I) {
    switch (P.Args[I]) {
    case ArgSpec::Any:
      break;
    case ArgSpec::List:
      S.refineSlot(C, I, TracedLeaf::listValue(C));
      break;
    case ArgSpec::Int:
      S.refineSlot(C, I, TracedLeaf::intValue(C));
      break;
    case ArgSpec::IntList:
      return false;
    }
  }
  return true;
}

/// Solve plus result extraction; mirrors the analyzer's type-graph path.
void solveAndSummarize(AnalysisResult &R, const TracedLeaf::Context &C,
                       SymbolTable &Syms, const Program &Prog,
                       const NProgram &NProg, const InputPattern &Pattern,
                       FunctorId Entry, const EngineOptions &EngOpts) {
  Engine<TracedLeaf> Eng(NProg, C, EngOpts);
  Sub In = Sub::bottom(0);
  if (!makeInputSub(C, Pattern, In)) {
    R.Error = "intlist goal arguments are not supported by the traced run";
    R.Fail = FailKind::BadQuery;
    return;
  }
  Sub Out = [&] {
    ScopedSpan S(Layer::Solve);
    return Eng.solve(Entry, In);
  }();
  R.Stats = Eng.stats();

  R.QuerySucceeds = !Out.isBottom();
  for (uint32_t I = 0; I != Pattern.arity(); ++I)
    R.QueryOutput.push_back(Out.isBottom()
                                ? TypeGraph::makeBottom()
                                : TracedLeaf::toGraph(C, Out.slotValue(C, I)));

  ScopedSpan S(Layer::Summaries);
  auto Tuples = Eng.tuples();
  for (const Procedure &P : Prog.procedures()) {
    PredicateSummary PS;
    PS.Name = Syms.functorName(P.Fn);
    PS.Arity = Syms.functorArity(P.Fn);
    PS.NumClauses = static_cast<uint32_t>(P.Clauses.size());
    Sub InLub = Sub::bottom(PS.Arity);
    Sub OutLub = Sub::bottom(PS.Arity);
    for (const auto &T : Tuples) {
      if (T.Pred != P.Fn)
        continue;
      ++PS.NumTuples;
      InLub = Sub::join(C, InLub, T.In);
      OutLub = Sub::join(C, OutLub, T.Out);
    }
    for (uint32_t I = 0; I != PS.Arity; ++I) {
      ArgInfo AIn, AOut;
      AIn.Graph = InLub.isBottom()
                      ? TypeGraph::makeBottom()
                      : TracedLeaf::toGraph(C, InLub.slotValue(C, I));
      AOut.Graph = OutLub.isBottom()
                       ? TypeGraph::makeBottom()
                       : TracedLeaf::toGraph(C, OutLub.slotValue(C, I));
      AIn.Tag = tagForGraph(AIn.Graph, Syms);
      AOut.Tag = tagForGraph(AOut.Graph, Syms);
      PS.Input.push_back(std::move(AIn));
      PS.Output.push_back(std::move(AOut));
    }
    R.Summaries.push_back(std::move(PS));
  }
  R.Ok = true;
}

AnalysisResult analyzeBody(const std::string &Source,
                           const std::string &GoalSpec,
                           const AnalyzerOptions &Opts) {
  const SharedCache *Shared = Opts.Shared.get();
  AnalysisResult R;
  {
    ScopedSpan S(Layer::SymtabCopy);
    R.Syms = Shared ? std::make_shared<SymbolTable>(Shared->symbols())
                    : std::make_shared<SymbolTable>();
  }
  SymbolTable &Syms = *R.Syms;

  std::string Err;
  uint32_t ErrLine = 0;
  std::optional<InputPattern> Pattern;
  std::optional<Program> Prog;
  {
    ScopedSpan S(Layer::Parse);
    Pattern = parseInputPattern(GoalSpec, &Err);
    if (Pattern)
      Prog = Program::parse(Source, Syms, &Err, &ErrLine);
  }
  if (!Pattern || !Prog) {
    R.Error = Err;
    R.Fail = Pattern ? FailKind::ParseError : FailKind::BadQuery;
    R.FailLine = ErrLine;
    return R;
  }

  NProgram NProg = [&] {
    ScopedSpan S(Layer::Normalize);
    return NProgram::fromProgram(*Prog, Syms);
  }();
  for (FunctorId Fn : NProg.unknownPredicates())
    R.UnknownPredicates.push_back(Syms.functorString(Fn));

  FunctorId Entry;
  {
    ScopedSpan S(Layer::Metrics);
    Entry = Syms.functor(Pattern->PredName, Pattern->arity());
    CallGraph CG(*Prog, Syms);
    R.Sizes = computeSizeMetrics(*Prog, NProg, Syms, Entry, CG);
    R.Recursion = classifyRecursion(*Prog, Syms);
  }
  if (!Prog->defines(Entry)) {
    R.Error = "goal predicate " + Syms.functorString(Entry) +
              " is not defined in the program";
    R.Fail = FailKind::BadQuery;
    return R;
  }

  EngineOptions EngOpts;
  EngOpts.RefineArithComparisons = Opts.RefineArithComparisons;
  EngOpts.MaxInputPatterns = Opts.MaxInputPatterns;
  EngOpts.MaxFixpointRounds = Opts.MaxFixpointRounds;

  NormalizeOptions Norm;
  Norm.OrCap = Opts.OrCap;
  WideningOptions Widen;
  Widen.Norm = Norm;
  Widen.Mode = Opts.Widening;
  Widen.DepthK = Opts.DepthK;
  OpCache Ops(Syms, Norm, Shared ? Shared->ops() : nullptr);
  TypeLeaf::Context C{Syms,
                      Norm,
                      Widen,
                      &R.WStats,
                      &Ops,
                      std::make_shared<TypeLeaf::Constants>(),
                      nullptr};
  if (Shared) {
    C.Consts = std::make_shared<TypeLeaf::Constants>(Shared->leafConstants());
    C.Shared = Opts.Shared;
  }
  solveAndSummarize(R, C, Syms, *Prog, NProg, *Pattern, Entry, EngOpts);
  R.Stats.OpCacheHits = Ops.stats().Hits;
  R.Stats.OpCacheMisses = Ops.stats().Misses;
  R.Stats.OpCacheSharedHits = Ops.stats().SharedHits;
  R.Stats.InternSharedHits = Ops.interner().stats().SharedHits;
  R.Stats.InternedGraphs = Ops.interner().size();
  R.Stats.PfSetHits = Ops.pfStats().Hits;
  R.Stats.PfSetMisses = Ops.pfStats().Misses;
  R.Stats.PfSetSharedHits = Ops.pfStats().SharedHits;
  R.Converged = R.Stats.FixpointAborts == 0;
  return R;
}

} // namespace

AnalysisResult perfbench::tracedAnalyze(const std::string &Source,
                                        const std::string &GoalSpec,
                                        const AnalyzerOptions &Opts) {
  // The root span closes after analyzeBody's locals (engine, op cache,
  // program) are destroyed, as they are inside analyzeProgram.
  ScopedSpan Root(Layer::Analysis);
  return analyzeBody(Source, GoalSpec, Opts);
}
