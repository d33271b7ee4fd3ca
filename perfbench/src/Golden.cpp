//===- perfbench/src/Golden.cpp ---------------------------------------------=//

#include "Golden.h"

#include "core/Report.h"
#include "programs/Benchmarks.h"

#include <fstream>
#include <sstream>

using namespace gaia;
using namespace perfbench;

namespace {

/// Golden records are separated by header lines carrying the query id;
/// no fingerprint line starts with this marker.
const std::string RecordMarker = "=== ";

} // namespace

std::vector<Query> perfbench::publishedQueries() {
  std::vector<Query> Queries;
  for (const BenchmarkProgram &B : table123Suite())
    Queries.push_back({B.Key, B.Source, B.GoalSpec});
  return Queries;
}

std::vector<Query> perfbench::serviceQueries() {
  std::vector<Query> Queries;
  for (const Query &Q : publishedQueries()) {
    Queries.push_back(Q);
    for (const char *Spec : {"list", "int"}) {
      std::string Goal = Q.GoalSpec;
      size_t Pos = Goal.find("any");
      if (Pos == std::string::npos)
        continue;
      Goal.replace(Pos, 3, Spec);
      Queries.push_back({Q.Key + "#" + Spec, Q.Source, Goal});
    }
  }
  return Queries;
}

std::string perfbench::goldenPath(const std::string &Dir, uint32_t OrCap) {
  return Dir + "/orcap" + std::to_string(OrCap) + ".txt";
}

bool perfbench::loadGolden(const std::string &Path, GoldenMap &Out,
                           std::string *Err) {
  std::ifstream In(Path);
  if (!In) {
    *Err = "cannot read golden file " + Path;
    return false;
  }
  Out.clear();
  std::string Line, Id, Body;
  bool HaveRecord = false;
  auto Flush = [&] {
    if (HaveRecord)
      Out[Id] = Body;
  };
  while (std::getline(In, Line)) {
    if (Line.compare(0, RecordMarker.size(), RecordMarker) == 0) {
      Flush();
      Id = Line.substr(RecordMarker.size());
      Body.clear();
      HaveRecord = true;
      continue;
    }
    if (!HaveRecord) {
      *Err = "golden file " + Path + " does not start with a record header";
      return false;
    }
    Body += Line + "\n";
  }
  Flush();
  if (Out.empty()) {
    *Err = "golden file " + Path + " holds no records";
    return false;
  }
  return true;
}

bool perfbench::recordGolden(const std::string &Dir, uint32_t OrCap,
                             std::string *Err) {
  AnalyzerOptions Opts;
  Opts.OrCap = OrCap;
  std::ostringstream Text;
  for (const Query &Q : serviceQueries()) {
    AnalysisResult R = analyzeProgram(Q.Source, Q.GoalSpec, Opts);
    if (!R.Ok || R.Degraded || !R.Converged) {
      *Err = Q.id() + ": analysis failed: " + R.Error;
      return false;
    }
    Text << RecordMarker << Q.id() << "\n" << analysisFingerprint(R);
  }
  std::string Path = goldenPath(Dir, OrCap);
  std::ofstream OutFile(Path);
  OutFile << Text.str();
  if (!OutFile.flush()) {
    *Err = "cannot write " + Path;
    return false;
  }
  return true;
}

bool perfbench::checkResult(const GoldenMap &Golden, const Query &Q,
                            const AnalysisResult &R, std::string *Why) {
  if (!R.Ok) {
    *Why = Q.id() + ": " + failKindName(R.Fail) + ": " + R.Error;
    return false;
  }
  if (R.Degraded) {
    *Why = Q.id() + ": degraded result";
    return false;
  }
  if (!R.Converged) {
    *Why = Q.id() + ": fixpoint did not converge";
    return false;
  }
  auto It = Golden.find(Q.id());
  if (It == Golden.end()) {
    *Why = Q.id() + ": no golden fingerprint";
    return false;
  }
  if (analysisFingerprint(R) != It->second) {
    *Why = Q.id() + ": fingerprint differs from the golden one";
    return false;
  }
  return true;
}
