//===- core/Report.cpp -------------------------------------------------------=//

#include "core/Report.h"

#include "typegraph/GrammarPrinter.h"

#include <cstdio>

using namespace gaia;

TagTally gaia::computeTagTally(const AnalysisResult &TypeRes,
                               const AnalysisResult &PFRes,
                               bool UseOutput) {
  TagTally T;
  for (const PredicateSummary &S : TypeRes.Summaries) {
    // Match the PF summary by name/arity (the two runs use separate
    // symbol tables).
    const PredicateSummary *PS = nullptr;
    for (const PredicateSummary &Cand : PFRes.Summaries)
      if (Cand.Name == S.Name && Cand.Arity == S.Arity) {
        PS = &Cand;
        break;
      }
    bool AnyImproved = false;
    for (uint32_t I = 0; I != S.Arity; ++I) {
      const std::vector<ArgInfo> &Args = UseOutput ? S.Output : S.Input;
      ArgTag TypeTag = Args[I].Tag;
      ArgTag PFTag = ArgTag::None;
      if (PS) {
        const std::vector<ArgInfo> &PFArgs =
            UseOutput ? PS->Output : PS->Input;
        PFTag = PFArgs[I].Tag;
      }
      ++T.A;
      T.Type[static_cast<size_t>(TypeTag)] += 1;
      T.PF[static_cast<size_t>(PFTag)] += 1;
      if (tagImproves(TypeTag, PFTag)) {
        ++T.AI;
        AnyImproved = true;
      }
    }
    T.C += S.NumClauses;
    if (AnyImproved)
      T.CI += S.NumClauses;
  }
  return T;
}

static std::string tagCell(uint32_t TypeCount, uint32_t PFCount) {
  char Buf[32];
  if (PFCount != 0)
    std::snprintf(Buf, sizeof(Buf), "%3u(%u)", TypeCount, PFCount);
  else
    std::snprintf(Buf, sizeof(Buf), "%3u   ", TypeCount);
  return Buf;
}

std::string gaia::tagTableHeader() {
  return "Program       NI      CO      LI      ST      DI      HY     "
         "   A   AI    AR      C   CI    CR";
}

std::string gaia::formatTagRow(const std::string &Name, const TagTally &T) {
  std::string Row;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%-10s", Name.c_str());
  Row += Buf;
  for (ArgTag Tag : {ArgTag::NI, ArgTag::CO, ArgTag::LI, ArgTag::ST,
                     ArgTag::DI, ArgTag::HY}) {
    Row += "  ";
    Row += tagCell(T.Type[static_cast<size_t>(Tag)],
                   T.PF[static_cast<size_t>(Tag)]);
  }
  std::snprintf(Buf, sizeof(Buf), "  %4u %4u  %.2f   %4u %4u  %.2f", T.A,
                T.AI, T.ar(), T.C, T.CI, T.cr());
  Row += Buf;
  return Row;
}

std::string gaia::sizeTableHeader() {
  return "Program     Procedures  Clauses  ProgramPoints  Goals  "
         "StaticCallTree";
}

std::string gaia::formatSizeRow(const std::string &Name,
                                const SizeMetrics &M) {
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf), "%-10s  %10u  %7u  %13llu  %5u  %14llu",
                Name.c_str(), M.NumProcedures, M.NumClauses,
                static_cast<unsigned long long>(M.NumProgramPoints),
                M.NumGoals,
                static_cast<unsigned long long>(M.StaticCallTreeSize));
  return Buf;
}

std::string gaia::recursionTableHeader() {
  return "Program     Tail  Locally  Mutually  NonRecursive";
}

std::string gaia::formatRecursionRow(const std::string &Name,
                                     const RecursionMetrics &M) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "%-10s  %4u  %7u  %8u  %12u",
                Name.c_str(), M.TailRecursive, M.LocallyRecursive,
                M.MutuallyRecursive, M.NonRecursive);
  return Buf;
}

std::string gaia::perfTableHeader() {
  return "Program     CPU(s)    ProcIters  ClauseIters   CPU(5)    "
         "CPU(2)";
}

std::string gaia::formatPerfRow(const std::string &Name, double Seconds,
                                uint64_t ProcIters, uint64_t ClauseIters,
                                double SecondsCap5, double SecondsCap2) {
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf),
                "%-10s  %7.3f  %11llu  %11llu  %7.3f  %7.3f",
                Name.c_str(), Seconds,
                static_cast<unsigned long long>(ProcIters),
                static_cast<unsigned long long>(ClauseIters), SecondsCap5,
                SecondsCap2);
  return Buf;
}

std::string gaia::formatQueryResult(const AnalysisResult &R,
                                    const std::string &GoalSpec) {
  std::string Out = "goal: " + GoalSpec + "\n";
  if (!R.Ok) {
    Out += "error: " + R.Error + "\n";
    return Out;
  }
  if (!R.QuerySucceeds) {
    Out += "the goal cannot succeed (bottom)\n";
    return Out;
  }
  for (size_t I = 0; I != R.QueryOutput.size(); ++I) {
    Out += "arg " + std::to_string(I + 1) + ": " +
           printGrammarInline(R.QueryOutput[I], *R.Syms) + "\n";
  }
  return Out;
}

std::string gaia::analysisFingerprint(const AnalysisResult &R) {
  std::string Out;
  Out += "ok=" + std::to_string(R.Ok) +
         " conv=" + std::to_string(R.Converged) +
         " succeeds=" + std::to_string(R.QuerySucceeds) +
         " proc=" + std::to_string(R.Stats.ProcedureIterations) +
         " clause=" + std::to_string(R.Stats.ClauseIterations) +
         " patterns=" + std::to_string(R.Stats.InputPatterns) + "\n";
  for (const TypeGraph &G : R.QueryOutput)
    Out += "out: " + printGrammarInline(G, *R.Syms) + "\n";
  for (const PredicateSummary &S : R.Summaries) {
    Out += S.Name + "/" + std::to_string(S.Arity) +
           " tuples=" + std::to_string(S.NumTuples) + "\n";
    for (uint32_t I = 0; I != S.Arity; ++I)
      Out += "  in[" + std::to_string(I) + "] " + tagName(S.Input[I].Tag) +
             " " + printGrammarInline(S.Input[I].Graph, *R.Syms) +
             " | out[" + std::to_string(I) + "] " +
             tagName(S.Output[I].Tag) + " " +
             printGrammarInline(S.Output[I].Graph, *R.Syms) + "\n";
  }
  return Out;
}
