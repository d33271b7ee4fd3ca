//===- perfbench/src/main.cpp - Benchmark entry point ---------------------==//
///
/// \file
/// perfbench --workload NAME --seed N --seconds S --trace 0|1
///           --golden-dir DIR [--trace-out FILE] [--git-commit SHA]
///           [--source-digest HEX]
/// perfbench --self-test --golden-dir DIR
/// perfbench --record-golden --golden-dir DIR
///
/// Prints a context line (hardware, build, seed, sample counts) and, as
/// the last line of standard output, one JSON object with the keys
/// correct, attempted, failed and metrics. Exits 1 after printing if
/// any analysis failed its check, 2 on a usage error.
///
//===----------------------------------------------------------------------===//

#include "Golden.h"
#include "Workloads.h"

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.compare(0, 10, "model name") != 0)
      continue;
    size_t Colon = Line.find(':');
    if (Colon != std::string::npos)
      return Line.substr(Line.find_first_not_of(' ', Colon + 1));
  }
  return "unknown";
}

int onlineCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return 0;
  return CPU_COUNT(&Set);
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --golden-dir DIR [--trace-out FILE] "
               "[--git-commit SHA] [--source-digest HEX]\n"
               "       perfbench --self-test --golden-dir DIR\n"
               "       perfbench --record-golden --golden-dir DIR\n",
               Why);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig Cfg;
  std::string GitCommit = "unavailable", SourceDigest = "unavailable";
  bool SelfTest = false, Record = false;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--self-test") {
      SelfTest = true;
      continue;
    }
    if (A == "--record-golden") {
      Record = true;
      continue;
    }
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      Cfg.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      Cfg.Seed = std::strtoull(V.c_str(), &End, 10);
      HaveSeed = !V.empty() && *End == '\0';
    } else if (A == "--seconds") {
      Cfg.Seconds = std::strtod(V.c_str(), &End);
      HaveSeconds = !V.empty() && *End == '\0' && Cfg.Seconds > 0 &&
                    Cfg.Seconds <= 120;
    } else if (A == "--trace") {
      HaveTrace = V == "0" || V == "1";
      Cfg.Trace = V == "1";
    } else if (A == "--golden-dir") {
      Cfg.GoldenDir = V;
    } else if (A == "--trace-out") {
      Cfg.TraceOut = V;
    } else if (A == "--git-commit") {
      GitCommit = V;
    } else if (A == "--source-digest") {
      SourceDigest = V;
    } else {
      return usage(("unknown argument " + A).c_str());
    }
  }
  if (Cfg.GoldenDir.empty())
    return usage("--golden-dir is required");

  if (Record) {
    for (uint32_t Cap : {0u, 2u}) {
      std::string Err;
      if (!recordGolden(Cfg.GoldenDir, Cap, &Err)) {
        std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
        return 1;
      }
    }
    return 0;
  }
  if (SelfTest) {
    bool Ok = selfTest(Cfg.GoldenDir);
    std::printf("self-test %s\n", Ok ? "passed" : "FAILED");
    return Ok ? 0 : 1;
  }

  if (!HaveWorkload || !isWorkload(Cfg.Workload))
    return usage("--workload must be cold-orcap0, cold-orcap2 or "
                 "warm-service");
  if (!HaveSeed)
    return usage("--seed must be a non-negative integer");
  if (!HaveSeconds)
    return usage("--seconds must be a number in (0, 120]");
  if (!HaveTrace)
    return usage("--trace must be 0 or 1");

  RunResult Res = runWorkload(Cfg);

  std::string Context = "{\"context\": {";
  Context += "\"workload\": " + jsonString(Cfg.Workload);
  Context += ", \"seed\": " + std::to_string(Cfg.Seed);
  Context += ", \"seconds\": " + jsonNumber(Cfg.Seconds);
  Context += ", \"trace\": " + std::to_string(Cfg.Trace ? 1 : 0);
  Context += ", \"nproc\": " + std::to_string(onlineCpus());
  Context += ", \"hardware_concurrency\": " +
             std::to_string(std::thread::hardware_concurrency());
  Context += ", \"cpu_model\": " + jsonString(cpuModel());
  Context += ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE);
#ifdef __VERSION__
  Context += ", \"compiler\": " + jsonString(__VERSION__);
#endif
  Context += ", \"git_commit\": " + jsonString(GitCommit);
  Context += ", \"source_digest\": " + jsonString(SourceDigest);
  Context += "}, \"samples\": {";
  for (size_t I = 0; I != Res.Samples.size(); ++I)
    Context += (I ? ", " : "") + jsonString(Res.Samples[I].first) + ": " +
               std::to_string(Res.Samples[I].second);
  Context += "}}";
  std::printf("%s\n", Context.c_str());

  for (const std::string &E : Res.Errors)
    std::fprintf(stderr, "perfbench: check failed: %s\n", E.c_str());

  std::string Out = "{\"correct\": ";
  Out += Res.Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Res.Attempted);
  Out += ", \"failed\": " + std::to_string(Res.Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I != Res.Metrics.size(); ++I) {
    const Metric &M = Res.Metrics[I];
    Out += (I ? ", " : "") + jsonString(M.Name) + ": {\"value\": " +
           jsonNumber(M.Value) + ", \"unit\": " + jsonString(M.Unit) + "}";
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  std::fflush(stdout);
  return Res.Correct ? 0 : 1;
}
