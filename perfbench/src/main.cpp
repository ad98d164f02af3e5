//===--- main.cpp - perfbench entry point ---------------------------------===//
///
/// \file
/// perfbench --workload compile|replay|fleet --seed N --seconds S
///           --trace 0|1 --workdir DIR
///
/// Runs one workload in a private work directory (removed at exit),
/// prints a human-readable report, and as its last line one JSON object:
/// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
/// end-to-end metrics, traced runs the per-layer metrics plus a span
/// table (self time per layer and per program or leg), and write
/// the raw span log next to the work directory.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Metrics.h"
#include "Phases.h"
#include "Workloads.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include <unistd.h>

using namespace perfbench;

double perfbench::timedSetup(const std::function<void()> &Setup) {
  unsigned Reps = Tracer::get().enabled() ? 1 : SetupReps;
  HostSpeed &Speed = HostSpeed::get();
  std::vector<double> Sec;
  for (unsigned I = 0; I < Reps; ++I) {
    double Before = Speed.probe();
    int64_t T0 = nowNs();
    Setup();
    double S = (nowNs() - T0) / 1e9;
    double After = Speed.probe();
    // A set-up takes seconds: scaled by the host speed around it.
    Sec.push_back(S * HostSpeed::ProbeRefMs / ((Before + After) / 2));
  }
  return median(Sec);
}

void perfbench::reportOverhead(Result &R, double UntracedMs,
                               double TracedMs) {
  double Ratio = UntracedMs > 0 ? TracedMs / UntracedMs - 1 : 0;
  R.metric("trace.overhead_ratio", Ratio, "ratio");
  R.line(fmt("tracing overhead       traced %.3f ms - untraced %.3f ms = "
             "%.3f ms (%+.1f%%) per repetition",
             TracedMs, UntracedMs, TracedMs - UntracedMs, Ratio * 100));
}

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "compile|replay|fleet --seed N --seconds S --trace 0|1 "
               "--workdir DIR\n",
               Why);
  return 2;
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  return fmt("%.17g", V);
}

void printSpanTable() {
  const auto &ByGroup = Tracer::get().byGroup();
  std::printf("\nspans (self time = duration minus child spans)\n");
  std::printf("%-14s %-26s %10s %14s %14s\n", "group", "span", "count",
              "total_ms", "self_ms");
  for (const auto &[Key, A] : ByGroup)
    std::printf("%-14s %-26s %10llu %14.3f %14.3f\n", Key.first.c_str(),
                Key.second.c_str(), static_cast<unsigned long long>(A.Count),
                A.TotalNs / 1e6, A.SelfNs / 1e6);
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Arg).c_str());
    std::string V = Argv[++I];
    if (Arg == "--workload")
      A.Workload = V;
    else if (Arg == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (Arg == "--seconds")
      A.Seconds = std::atof(V.c_str());
    else if (Arg == "--trace")
      A.Trace = V == "1";
    else if (Arg == "--workdir")
      A.WorkDir = V;
    else
      return usage(("unknown option " + Arg).c_str());
  }
  Result (*Run)(const Args &) = nullptr;
  if (A.Workload == "compile")
    Run = runCompile;
  else if (A.Workload == "replay")
    Run = runReplay;
  else if (A.Workload == "fleet")
    Run = runFleet;
  else
    return usage(("unknown workload '" + A.Workload + "'").c_str());
  if (!(A.Seconds > 0) || A.WorkDir.empty())
    return usage("--seconds and --workdir are required");

  // Everything the run writes — native caches, host cc temporaries —
  // lives under the private work directory; so would a default native
  // cache, should anything fall back to one.
  removeTree(A.WorkDir);
  if (!makeDirs(A.WorkDir + "/tmp") || ::chdir(A.WorkDir.c_str()) != 0)
    return usage(("cannot create work directory " + A.WorkDir).c_str());
  char Cwd[4096];
  std::string Work = ::getcwd(Cwd, sizeof(Cwd)) ? Cwd : A.WorkDir;
  ::setenv("TMPDIR", (Work + "/tmp").c_str(), 1);
  ::setenv("XDG_CACHE_HOME", (Work + "/tmp").c_str(), 1);

  Tracer::get().enable(A.Trace);
  Result R = Run(A);
  Tracer::get().enable(false);
  const HostSpeed &Speed = HostSpeed::get();
  double Factor = median(Speed.probeMs()) / HostSpeed::ProbeRefMs;
  R.line(fmt("host speed probe       median %.3f ms over %zu probes "
             "(reference %.3f ms): raw times = reported x %.3f, raw rates "
             "= reported / %.3f",
             median(Speed.probeMs()), Speed.probeMs().size(),
             HostSpeed::ProbeRefMs, Factor, Factor));
  verifyPhasedCompiles(R);

  ::chdir("..");
  if (A.Trace) {
    std::string LogPath = Work + ".spans.tsv";
    if (!Tracer::get().writeLog(LogPath))
      R.check(false, "cannot write span log " + LogPath);
  }
  removeTree(Work);

  std::printf("workload %s, seed %llu, %.1f s%s\n", A.Workload.c_str(),
              static_cast<unsigned long long>(A.Seed), A.Seconds,
              A.Trace ? ", traced" : "");
  for (const std::string &L : R.Report)
    std::printf("%s\n", L.c_str());
  if (A.Trace) {
    printSpanTable();
    std::printf("span log: %s.spans.tsv\n", Work.c_str());
  }

  // Every listed metric, in list order; a layer the workload did not
  // exercise reports 0.
  std::string Json;
  auto Emit = [&](const MetricDef &D) {
    double V = 0;
    for (const auto &M : R.Metrics)
      if (M.first == D.Name)
        V = M.second.first;
    if (!Json.empty())
      Json += ", ";
    Json += fmt("\"%s\": {\"value\": %s, \"unit\": \"%s\"}", D.Name,
                jsonNumber(V).c_str(), D.Unit);
  };
  std::printf("\n%-40s %20s  %s\n", "metric", "value", "unit");
  if (A.Trace)
    for (const MetricDef &D : LayerMetrics)
      Emit(D);
  else
    for (const MetricDef &D : EndToEndMetrics)
      Emit(D);
  auto PrintTable = [&](const MetricDef *B, const MetricDef *E) {
    for (const MetricDef *D = B; D != E; ++D) {
      double V = 0;
      for (const auto &M : R.Metrics)
        if (M.first == D->Name)
          V = M.second.first;
      std::printf("%-40s %20.6g  %s\n", D->Name, V, D->Unit);
    }
  };
  if (A.Trace)
    PrintTable(std::begin(LayerMetrics), std::end(LayerMetrics));
  else
    PrintTable(std::begin(EndToEndMetrics), std::end(EndToEndMetrics));
  std::printf("fail_ratio %.6g (%llu failed of %llu attempted)\n",
              R.Attempted ? double(R.Failed) / R.Attempted : 1.0,
              static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              R.Failed == 0 && R.Attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed), Json.c_str());
  std::fflush(stdout);
  return 0;
}
