//===--- fleet_test.cpp - Fleet-vs-scalar identity pins -------------------===//
///
/// The FleetExecutor's contract is *bit-identical observable behaviour*
/// per instance: running N instances of a program as fleet lanes must
/// produce, for every instance, exactly the trace and exactly the
/// guard/executed counters a scalar VmExecutor produces for that
/// instance alone — for every shard granularity (LaneBlock), every
/// thread count and every batching window. These tests pin that contract over
/// the Figure-13 builtins; the differential oracle extends it to the
/// random-program sweep.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "interp/FleetExecutor.h"
#include "interp/VmExecutor.h"
#include "programs/Programs.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

using namespace sigc;
using namespace sigc::test;

namespace {

/// Per-instance environment seeds: distinct but deterministic.
uint64_t instanceSeed(uint64_t Base, unsigned Instance) {
  return Base + 1000003ull * Instance;
}

struct ScalarRef {
  std::string Trace;
  uint64_t GuardTests = 0;
  uint64_t Executed = 0;
};

/// The scalar reference: one VmExecutor, one environment, unbatched.
ScalarRef scalarRun(const CompiledStep &CS, uint64_t Seed, unsigned Instants) {
  VmExecutor Exec(CS);
  RandomEnvironment Env(Seed);
  Exec.run(Env, Instants);
  return {formatEvents(Env.outputs()), Exec.guardTests(), Exec.executed()};
}

/// A fleet of per-instance RandomEnvironments over one CompiledStep.
struct Fleet {
  std::vector<std::unique_ptr<RandomEnvironment>> Owned;
  std::vector<Environment *> Envs;
  std::unique_ptr<FleetExecutor> Exec;

  Fleet(const CompiledStep &CS, unsigned Instances, uint64_t BaseSeed,
        FleetExecutor::Config Cfg) {
    for (unsigned J = 0; J < Instances; ++J) {
      Owned.push_back(std::make_unique<RandomEnvironment>(
          instanceSeed(BaseSeed, J)));
      Envs.push_back(Owned.back().get());
    }
    Exec = std::make_unique<FleetExecutor>(CS, Instances, Cfg);
  }

  std::string trace(unsigned Instance) const {
    return formatEvents(Owned[Instance]->outputs());
  }
};

/// Pins a fleet run of \p Instances instances against per-instance
/// scalar references: traces per instance, counters as the sum.
void expectFleetMatchesScalar(const CompiledStep &CS, unsigned Instances,
                              unsigned Instants, uint64_t BaseSeed,
                              FleetExecutor::Config Cfg,
                              const std::string &What) {
  Fleet F(CS, Instances, BaseSeed, Cfg);
  F.Exec->run(F.Envs, Instants);

  uint64_t SumGuards = 0, SumExecuted = 0;
  for (unsigned J = 0; J < Instances; ++J) {
    ScalarRef Ref = scalarRun(CS, instanceSeed(BaseSeed, J), Instants);
    EXPECT_EQ(F.trace(J), Ref.Trace)
        << What << ": instance " << J << " diverged (lane block "
        << Cfg.LaneBlock << ", threads " << Cfg.Threads << ")";
    SumGuards += Ref.GuardTests;
    SumExecuted += Ref.Executed;
  }
  EXPECT_EQ(F.Exec->guardTests(), SumGuards)
      << What << ": guard tests must sum per instance";
  EXPECT_EQ(F.Exec->executed(), SumExecuted)
      << What << ": executed count must sum per instance";
}

} // namespace

TEST(Fleet, MatchesScalarAcrossFigure13Suite) {
  for (const Figure13Program &P : figure13Suite()) {
    auto C = compileOk(P.Source);
    if (!C->Ok)
      continue;
    FleetExecutor::Config Cfg;
    Cfg.LaneBlock = 4;
    expectFleetMatchesScalar(C->Compiled, 5, 40, 0xF13 + P.PaperVariables,
                             Cfg, P.Name);
  }
}

TEST(Fleet, Figure5AlarmEveryLaneBlockSize) {
  auto C = compileOk(alarmFigure5Source());
  for (unsigned Block : {1u, 4u, 64u}) {
    FleetExecutor::Config Cfg;
    Cfg.LaneBlock = Block;
    expectFleetMatchesScalar(C->Compiled, 9, 100, 77, Cfg, "FIG5_ALARM");
  }
}

TEST(Fleet, LaneBlockSizesProduceIdenticalTraces) {
  // The lane grouping is an implementation detail: every block size is
  // pinned against the same scalar reference, so any pair of block sizes
  // is transitively trace-identical.
  ProgramShape Shape;
  Shape.DividerStages = 6;
  Shape.AlarmInstances = 2;
  auto C = compileOk(generateProgram("FLEET_MIX", Shape));
  for (unsigned Block : {1u, 4u, 64u}) {
    FleetExecutor::Config Cfg;
    Cfg.LaneBlock = Block;
    expectFleetMatchesScalar(C->Compiled, 10, 64, 4242, Cfg, "FLEET_MIX");
  }
}

TEST(Fleet, ThreadCountDoesNotChangeTheTrace) {
  // Shards own disjoint instance ranges, scratch and counters; the only
  // post-join step is a deterministic fold. 1, 2 and 5 threads must be
  // observationally identical (and identical to scalar).
  ProgramShape Shape;
  Shape.DividerStages = 8;
  Shape.GridA = 2;
  Shape.GridB = 2;
  auto C = compileOk(generateProgram("FLEET_THREADED", Shape));
  for (unsigned Threads : {1u, 2u, 5u}) {
    FleetExecutor::Config Cfg;
    Cfg.LaneBlock = 4; // 13 instances -> 4 blocks, shards split unevenly.
    Cfg.Threads = Threads;
    expectFleetMatchesScalar(C->Compiled, 13, 48, 99, Cfg, "FLEET_THREADED");
  }
}

TEST(Fleet, WindowedRunsMatchOneWindow) {
  // Delay state is the only carrier across windows; windowed execution
  // (many stepN calls) must equal one big window and the scalar run.
  auto C = compileOk(proc("? integer A; ! integer SUM;",
                          "   SUM := A + (SUM$ init 0)"));
  FleetExecutor::Config Cfg;
  Cfg.LaneBlock = 4;

  Fleet Windowed(C->Compiled, 6, 555, Cfg);
  Windowed.Exec->runBatched(Windowed.Envs, 60, 7);

  Fleet Single(C->Compiled, 6, 555, Cfg);
  Single.Exec->run(Single.Envs, 60);

  for (unsigned J = 0; J < 6; ++J) {
    EXPECT_EQ(Windowed.trace(J), Single.trace(J)) << "instance " << J;
    ScalarRef Ref = scalarRun(C->Compiled, instanceSeed(555, J), 60);
    EXPECT_EQ(Windowed.trace(J), Ref.Trace) << "instance " << J;
  }
  EXPECT_EQ(Windowed.Exec->guardTests(), Single.Exec->guardTests());
  EXPECT_EQ(Windowed.Exec->executed(), Single.Exec->executed());
}

TEST(Fleet, ResetRestoresInitialDelayState) {
  auto C = compileOk(proc("? integer A; ! integer SUM;",
                          "   SUM := A + (SUM$ init 0)"));
  FleetExecutor::Config Cfg;
  Cfg.LaneBlock = 2;
  Fleet F(C->Compiled, 3, 31, Cfg);
  F.Exec->run(F.Envs, 20);
  F.Exec->reset();
  F.Exec->resetCounters();
  for (auto &E : F.Owned)
    E->clearOutputs();

  F.Exec->run(F.Envs, 20);
  for (unsigned J = 0; J < 3; ++J) {
    ScalarRef Ref = scalarRun(C->Compiled, instanceSeed(31, J), 20);
    EXPECT_EQ(F.trace(J), Ref.Trace) << "instance " << J;
  }
}

TEST(Fleet, SingleInstanceFleetIsAScalarRun) {
  // Degenerate fleet: one instance in a shard sized for 64. Pins that a
  // fleet of one is indistinguishable from the VM.
  auto C = compileOk(alarmFigure5Source());
  FleetExecutor::Config Cfg;
  Cfg.LaneBlock = 64;
  expectFleetMatchesScalar(C->Compiled, 1, 80, 8, Cfg, "FIG5_ALARM[1]");
}
