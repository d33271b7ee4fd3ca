//===- programs/PaperData.h - The paper's reported numbers ----------------==//
///
/// \file
/// The values reported in Tables 1-5 of the paper, used by the benchmark
/// harnesses to print paper-vs-measured comparisons.
/// Our benchmark sources are reconstructions, so absolute counts differ;
/// the comparison targets the *shape* (orderings, ratios, which program
/// is pathological).
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_PROGRAMS_PAPERDATA_H
#define GAIA_PROGRAMS_PAPERDATA_H

#include <cstdint>
#include <string>

namespace gaia {

struct PaperTable1Row {
  const char *Key;
  uint32_t Procedures, Clauses, ProgramPoints, Goals, CallTree;
};

struct PaperTable2Row {
  const char *Key;
  uint32_t Tail, Local, Mutual, NonRec;
};

struct PaperTable3Row {
  const char *Key;
  double Cpu;
  uint32_t ProcIters, ClauseIters;
  double Cpu5, Cpu2;
};

/// Tables 4 and 5 share this shape (A/AI/AR and C/CI/CR columns).
struct PaperTagRow {
  const char *Key;
  uint32_t A, AI;
  double AR;
  uint32_t C, CI;
  double CR;
};

/// Row lookup (nullptr when the paper has no row for \p Key).
const PaperTable1Row *paperTable1(const std::string &Key);
const PaperTable2Row *paperTable2(const std::string &Key);
const PaperTable3Row *paperTable3(const std::string &Key);
const PaperTagRow *paperTable4(const std::string &Key); // output tags
const PaperTagRow *paperTable5(const std::string &Key); // input tags

} // namespace gaia

#endif // GAIA_PROGRAMS_PAPERDATA_H
