//===--- bench_forest.cpp - Tree construction micro-benchmarks ------------===//
///
/// Cost of the arborescent resolution itself (Section 3.4): sweeps the two
/// structural extremes of the generator —
///
///   * deep divider chains (tree depth grows linearly),
///   * wide sampling grids (many intersection insertions under one root),
///
/// and reports resolution time plus the per-run statistics (insertions,
/// fusions, merges, BDD nodes). The paper's practicality claim corresponds
/// to near-linear growth here. BM_ForestBuiltin times the two largest
/// Figure-13 programs, where the inclusion tests dominate, and reports how
/// many of those tests fell back from the literal hulls to a BDD walk.
///
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "parser/Parser.h"
#include "programs/Programs.h"
#include "sema/Sema.h"

#include <benchmark/benchmark.h>

using namespace sigc;

namespace {

struct Prepared {
  SourceManager SM;
  DiagnosticEngine Diags{&SM};
  AstContext Ctx;
  std::optional<KernelProgram> Kernel;
  ClockSystem Sys;

  explicit Prepared(const std::string &Source) {
    SourceLoc Start = SM.addBuffer("bench", Source);
    Parser P(SM.bufferText(Start), Start, Ctx, Diags);
    Program *Ast = P.parseProgram();
    if (!Ast)
      std::abort();
    Sema S(Ctx, Diags);
    Kernel = S.analyze(*Ast->Processes.front());
    if (!Kernel)
      std::abort();
    Sys = extractClockSystem(*Kernel);
  }
};

void BM_ForestChain(benchmark::State &State) {
  ProgramShape Shape;
  Shape.DividerStages = static_cast<unsigned>(State.range(0));
  Prepared P(generateProgram("CHAIN", Shape));
  uint64_t Nodes = 0, Insertions = 0;
  for (auto _ : State) {
    BddManager Mgr;
    ClockForest Forest(Mgr);
    bool Ok = Forest.build(P.Sys, *P.Kernel, P.Ctx.interner(), P.Diags);
    benchmark::DoNotOptimize(Ok);
    Nodes = Forest.stats().BddNodes;
    Insertions = Forest.stats().Insertions;
  }
  State.counters["clock_vars"] = P.Sys.numVars();
  State.counters["bdd_nodes"] = static_cast<double>(Nodes);
  State.counters["insertions"] = static_cast<double>(Insertions);
}

void BM_ForestGrid(benchmark::State &State) {
  ProgramShape Shape;
  Shape.GridA = static_cast<unsigned>(State.range(0));
  Shape.GridB = static_cast<unsigned>(State.range(0));
  Prepared P(generateProgram("GRID", Shape));
  uint64_t Nodes = 0, Fusions = 0;
  for (auto _ : State) {
    BddManager Mgr;
    ClockForest Forest(Mgr);
    bool Ok = Forest.build(P.Sys, *P.Kernel, P.Ctx.interner(), P.Diags);
    benchmark::DoNotOptimize(Ok);
    Nodes = Forest.stats().BddNodes;
    Fusions = Forest.stats().Fusions;
  }
  State.counters["clock_vars"] = P.Sys.numVars();
  State.counters["bdd_nodes"] = static_cast<double>(Nodes);
  State.counters["fusions"] = static_cast<double>(Fusions);
}

void BM_ForestAlarmFarm(benchmark::State &State) {
  ProgramShape Shape;
  Shape.AlarmInstances = static_cast<unsigned>(State.range(0));
  Prepared P(generateProgram("FARM", Shape));
  for (auto _ : State) {
    BddManager Mgr;
    ClockForest Forest(Mgr);
    bool Ok = Forest.build(P.Sys, *P.Kernel, P.Ctx.interner(), P.Diags);
    benchmark::DoNotOptimize(Ok);
  }
  State.counters["clock_vars"] = P.Sys.numVars();
}

void BM_ForestBuiltin(benchmark::State &State, const char *Name) {
  std::string Source;
  for (const Figure13Program &P : figure13Suite())
    if (P.Name == Name)
      Source = P.Source;
  Prepared P(Source);
  ForestBuildStats Stats;
  for (auto _ : State) {
    BddManager Mgr;
    ClockForest Forest(Mgr);
    bool Ok = Forest.build(P.Sys, *P.Kernel, P.Ctx.interner(), P.Diags);
    benchmark::DoNotOptimize(Ok);
    Stats = Forest.stats();
  }
  State.counters["clock_vars"] = P.Sys.numVars();
  State.counters["inclusion_tests"] = Stats.InclusionTests;
  State.counters["bdd_fallbacks"] = Stats.InclusionBddFallbacks;
}

} // namespace

BENCHMARK_CAPTURE(BM_ForestBuiltin, WATCH, "WATCH");
BENCHMARK_CAPTURE(BM_ForestBuiltin, STOPWATCH, "STOPWATCH");
BENCHMARK(BM_ForestChain)->Arg(8)->Arg(32)->Arg(128);
BENCHMARK(BM_ForestGrid)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(BM_ForestAlarmFarm)->Arg(1)->Arg(4)->Arg(16);

BENCHMARK_MAIN();
