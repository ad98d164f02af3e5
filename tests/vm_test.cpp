//===--- vm_test.cpp - Slot-resolved VM: structure, semantics, counters ---===//
///
/// Tests of the CompiledStep/VmExecutor execution engine:
///   * structural invariants of the lowered bytecode (resolved descriptor
///     indices, well-formed skip offsets, folded constants),
///   * trace equivalence between the nested and the flat CompiledStep
///     layouts and the reference interpreter on scripted and builtin
///     programs (the differential oracle re-checks this at scale; here
///     the failures localize),
///   * the guard-economics regression pin: the nested layout must never
///     regress to the flat layout's guard work, and the Executed counter
///     stays one per step instruction across the multi-instruction
///     expression lowering (Weight accounting) in both layouts.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "interp/KernelInterp.h"
#include "interp/VmExecutor.h"
#include "programs/Programs.h"
#include "testing/TraceCompare.h"

#include <gtest/gtest.h>

using namespace sigc;
using namespace sigc::test;

namespace {

CompiledStep buildVm(Compilation &C) {
  return CompiledStep::build(*C.Kernel, C.Step);
}

CompiledStep buildFlat(Compilation &C) {
  return CompiledStep::build(*C.Kernel, C.Step, StepLayout::Flat);
}

} // namespace

//===----------------------------------------------------------------------===//
// Structural invariants of the lowered bytecode.
//===----------------------------------------------------------------------===//

TEST(CompiledStep, DescriptorIndicesAreResolved) {
  auto C = compileOk(proc("? integer A; boolean C1; ! integer Y;",
                          "   Y := (A + 1) when C1"));
  CompiledStep CS = buildVm(*C);
  for (const VmInstr &In : CS.Code) {
    switch (In.Op) {
    case VmOp::ReadClockInput:
      ASSERT_GE(In.Aux, 0);
      ASSERT_LT(static_cast<size_t>(In.Aux), CS.ClockInputs.size());
      break;
    case VmOp::ReadSignal:
      ASSERT_GE(In.Aux, 0);
      ASSERT_LT(static_cast<size_t>(In.Aux), CS.Inputs.size());
      break;
    case VmOp::WriteOutput:
      ASSERT_GE(In.Aux, 0);
      ASSERT_LT(static_cast<size_t>(In.Aux), CS.Outputs.size());
      break;
    default:
      break;
    }
  }
}

TEST(CompiledStep, SkipOffsetsAreForwardAndBounded) {
  auto C = compileOk(proc("? integer A; boolean C1, C2; ! integer Y;",
                          "   T1 := A when C1\n"
                          "   | T2 := T1 when C2\n"
                          "   | Y := T2 + 1",
                          "integer T1, T2;"));
  CompiledStep CS = buildVm(*C);
  unsigned Skips = 0;
  for (size_t PC = 0; PC < CS.Code.size(); ++PC) {
    const VmInstr &In = CS.Code[PC];
    if (In.Op != VmOp::SkipIfAbsent)
      continue;
    ++Skips;
    EXPECT_GT(In.Aux, static_cast<int32_t>(PC)) << "skip must move forward";
    EXPECT_LE(In.Aux, static_cast<int32_t>(CS.Code.size()));
    EXPECT_GE(In.A, 0);
    EXPECT_LT(In.A, static_cast<int32_t>(CS.NumClockSlots));
    EXPECT_EQ(In.Weight, 0) << "guard tests are not executed instructions";
  }
  EXPECT_GT(Skips, 0u) << "a sampled program must have guarded blocks";
}

TEST(CompiledStep, ExpressionLoweringCountsOnceViaWeights) {
  // (A * A + 1) * (A - 2) lowers to several three-address instructions;
  // exactly one of them (the root) must carry Weight 1.
  auto C = compileOk(proc("? integer A; ! integer Y;",
                          "   Y := (A * A + 1) * (A - 2)"));
  CompiledStep CS = buildVm(*C);
  EXPECT_GT(CS.NumTempSlots, 0u) << "interior results need scratch slots";
  uint64_t StepInstrs = C->Step.Instrs.size();
  uint64_t WeightSum = 0;
  for (const VmInstr &In : CS.Code)
    WeightSum += In.Weight;
  EXPECT_EQ(WeightSum, StepInstrs)
      << "every step instruction contributes exactly 1 to Executed";
}

TEST(CompiledStep, ConstantSubtreesFoldAtBuildTime) {
  auto C = compileOk(proc("? integer A; ! integer Y;",
                          "   Y := A + (2 * 3 + 4)"));
  CompiledStep CS = buildVm(*C);
  bool FoldedSeen = false;
  for (const Value &V : CS.Consts)
    FoldedSeen |= V.Kind == TypeKind::Integer && V.Int == 10;
  EXPECT_TRUE(FoldedSeen) << "2 * 3 + 4 should fold to the constant 10";
}

//===----------------------------------------------------------------------===//
// Trace equivalence across the two layouts.
//===----------------------------------------------------------------------===//

TEST(VmExecutor, MatchesNestedOnScriptedTrace) {
  auto C = compileOk(proc("? integer X1, X2; ! integer X;",
                          "   X := X1 + X2"));
  ScriptedEnvironment EnvA, EnvB;
  for (auto *E : {&EnvA, &EnvB}) {
    E->tickAlways();
    for (unsigned I = 0; I < 4; ++I) {
      E->set("X1", I, Value::makeInt(static_cast<int>(I) + 1));
      E->set("X2", I, Value::makeInt(10 - static_cast<int>(I)));
    }
  }
  CompiledStep FlatCS = buildFlat(*C);
  VmExecutor Flat(FlatCS);
  Flat.run(EnvA, 4);
  CompiledStep CS = buildVm(*C);
  VmExecutor Vm(CS);
  Vm.run(EnvB, 4);
  EXPECT_EQ(formatEvents(EnvA.outputs()), formatEvents(EnvB.outputs()));
  EXPECT_EQ(formatEvents(EnvB.outputs()),
            "0 X=11\n1 X=11\n2 X=11\n3 X=11\n");
}

TEST(VmExecutor, MatchesNestedOnBuiltinSuite) {
  for (const Figure13Program &P : figure13Suite()) {
    auto C = compileSource("<vm:" + P.Name + ">", P.Source);
    ASSERT_TRUE(C->Ok) << P.Name;
    RandomEnvironment EnvRef(17), EnvFlat(17), EnvVm(17);
    KernelInterp Ref(*C->Kernel, C->Clocks, *C->Forest, C->names());
    ASSERT_TRUE(Ref.run(EnvRef, 48)) << P.Name;
    CompiledStep FlatCS = buildFlat(*C);
    VmExecutor Flat(FlatCS);
    Flat.run(EnvFlat, 48);
    CompiledStep CS = buildVm(*C);
    VmExecutor Vm(CS);
    Vm.run(EnvVm, 48);
    EXPECT_EQ(formatEvents(EnvFlat.outputs()), formatEvents(EnvVm.outputs()))
        << P.Name;
    EXPECT_EQ(formatEvents(canonicalTrace(EnvRef.outputs())),
              formatEvents(canonicalTrace(EnvVm.outputs())))
        << P.Name;
    EXPECT_EQ(Flat.guardTests(), 48u * C->Step.numGuardedInstrs()) << P.Name;
    EXPECT_LT(Vm.guardTests(), Flat.guardTests()) << P.Name;
    EXPECT_EQ(Vm.executed(), Flat.executed()) << P.Name;
  }
}

TEST(VmExecutor, ResetRestoresInitialState) {
  auto C = compileOk(proc("? integer A; ! integer Y;",
                          "   Y := A + (Y $ 1 init 100)"));
  ScriptedEnvironment Env;
  Env.tickAlways();
  for (unsigned I = 0; I < 3; ++I)
    Env.set("A", I, Value::makeInt(1));
  CompiledStep CS = buildVm(*C);
  VmExecutor Exec(CS);
  Exec.run(Env, 3);
  std::string First = formatEvents(Env.outputs());
  Env.clearOutputs();
  Exec.reset();
  Exec.run(Env, 3);
  EXPECT_EQ(formatEvents(Env.outputs()), First);
}

TEST(VmExecutor, RebindsWhenEnvironmentAddressIsReused) {
  // A loop-local environment is destroyed and the next one typically
  // lands at the same address: the binding cache must key on the
  // environment's identity, not its address, or the second run queries
  // a dead environment's ids (historically an out-of-bounds read).
  auto C = compileOk(proc("? integer A; ! integer Y;", "   Y := A + 1"));
  CompiledStep CS = CompiledStep::build(*C->Kernel, C->Step);
  VmExecutor Exec(CS);
  for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
    RandomEnvironment Env(Seed, 1000);
    RandomEnvironment Ref(Seed, 1000); // fresh executor = known-good path
    Exec.reset();
    Exec.run(Env, 16);
    VmExecutor Fresh(CS);
    Fresh.run(Ref, 16);
    EXPECT_EQ(formatEvents(Env.outputs()), formatEvents(Ref.outputs()))
        << "stale binding after environment address reuse (seed " << Seed
        << ")";
  }
}

TEST(VmExecutor, RebindsWhenEnvironmentChanges) {
  auto C = compileOk(proc("? integer A; ! integer Y;", "   Y := A + 1"));
  CompiledStep CS = buildVm(*C);
  VmExecutor Exec(CS);
  ScriptedEnvironment E1, E2;
  E1.tickAlways();
  E2.tickAlways();
  E1.set("A", 0, Value::makeInt(1));
  E2.set("A", 1, Value::makeInt(41));
  Exec.step(E1, 0);
  Exec.step(E2, 1); // different environment: must rebind, not misroute
  EXPECT_EQ(formatEvents(E1.outputs()), "0 Y=2\n");
  EXPECT_EQ(formatEvents(E2.outputs()), "1 Y=42\n");
}

//===----------------------------------------------------------------------===//
// Windows: how a run is cut into stepN windows must be invisible.
//===----------------------------------------------------------------------===//

TEST(VmExecutor, BatchedMatchesSteppedOnBuiltinSuite) {
  // Exact event-sequence identity (not just canonical-trace identity):
  // a window flushes its outputs instant by instant in write order, so
  // the raw recorded vectors must be equal for every window size and
  // phase, and equal to the reference interpreter's canonical trace.
  const unsigned Instants = 53; // deliberately no multiple of any window
  for (const Figure13Program &P : figure13Suite()) {
    auto C = compileSource("<vmbatch:" + P.Name + ">", P.Source);
    ASSERT_TRUE(C->Ok) << P.Name;
    RandomEnvironment EnvRef(23);
    KernelInterp Ref(*C->Kernel, C->Clocks, *C->Forest, C->names());
    ASSERT_TRUE(Ref.run(EnvRef, Instants)) << P.Name;
    RandomEnvironment EnvStep(23);
    VmExecutor Stepped(C->Compiled);
    Stepped.runBatched(EnvStep, Instants, 1);
    EXPECT_EQ(formatEvents(canonicalTrace(EnvStep.outputs())),
              formatEvents(canonicalTrace(EnvRef.outputs())))
        << P.Name;
    for (unsigned Batch : {2u, 7u, 64u}) {
      RandomEnvironment EnvBatch(23);
      VmExecutor Batched(C->Compiled);
      Batched.runBatched(EnvBatch, Instants, Batch);
      EXPECT_EQ(formatEvents(EnvBatch.outputs()),
                formatEvents(EnvStep.outputs()))
          << P.Name << " batch=" << Batch;
      EXPECT_EQ(Batched.guardTests(), Stepped.guardTests())
          << P.Name << " batch=" << Batch;
      EXPECT_EQ(Batched.executed(), Stepped.executed())
          << P.Name << " batch=" << Batch;
    }
  }
}

TEST(VmExecutor, BatchedDelayStateCarriesAcrossWindows) {
  // A delay chain is where a windowing bug (state reset or instant
  // mis-tagging between windows) shows first.
  auto C = compileOk(proc("? integer A; ! integer Y;",
                          "   Y := A + (Y $ 1 init 0)"));
  RandomEnvironment ERef(5, 1000), E1(5, 1000), E2(5, 1000);
  KernelInterp Ref(*C->Kernel, C->Clocks, *C->Forest, C->names());
  ASSERT_TRUE(Ref.run(ERef, 20));
  VmExecutor Stepped(C->Compiled), Batched(C->Compiled);
  Stepped.runBatched(E1, 20, 1);
  Batched.runBatched(E2, 20, 7);
  EXPECT_EQ(formatEvents(E1.outputs()), formatEvents(ERef.outputs()));
  EXPECT_EQ(formatEvents(E2.outputs()), formatEvents(E1.outputs()));
}

TEST(VmExecutor, BatchedOutputOrderWithinInstantIsUnbatchedOrder) {
  auto C = compileOk(proc("? integer A; ! integer DBL, SQR;",
                          "   DBL := A * 2\n   | SQR := A * A"));
  RandomEnvironment ERef(9, 1000), E1(9, 1000), E2(9, 1000);
  KernelInterp Ref(*C->Kernel, C->Clocks, *C->Forest, C->names());
  ASSERT_TRUE(Ref.run(ERef, 6));
  VmExecutor Stepped(C->Compiled), Batched(C->Compiled);
  Stepped.runBatched(E1, 6, 1);
  Batched.stepN(E2, 0, 6);
  // Raw sequences equal: per instant, DBL before SQR in every window.
  ASSERT_EQ(E1.outputs().size(), E2.outputs().size());
  for (size_t I = 0; I < E1.outputs().size(); ++I)
    EXPECT_TRUE(E1.outputs()[I] == E2.outputs()[I]) << I;
  EXPECT_EQ(formatEvents(canonicalTrace(E1.outputs())),
            formatEvents(canonicalTrace(ERef.outputs())));
}

//===----------------------------------------------------------------------===//
// Guard-economics regression pin (the Figure-9 effect, satellite task).
//===----------------------------------------------------------------------===//

TEST(VmExecutor, GuardWorkNeverRegressesToFlatLevel) {
  // A deep divider chain with a sparse root: the whole point of the
  // clock hierarchy is that nested/VM skip absent subtrees wholesale.
  ProgramShape Shape;
  Shape.DividerStages = 24;
  auto C = compileOk(generateProgram("CHAIN", Shape));
  const unsigned Instants = 256;

  RandomEnvironment EnvFlat(5, 200), EnvVm(5, 200);
  CompiledStep FlatCS = buildFlat(*C);
  VmExecutor Flat(FlatCS);
  Flat.run(EnvFlat, Instants);
  CompiledStep CS = buildVm(*C);
  VmExecutor Vm(CS);
  Vm.run(EnvVm, Instants);

  // Identical traces first — the economics are meaningless otherwise.
  EXPECT_EQ(formatEvents(EnvVm.outputs()), formatEvents(EnvFlat.outputs()));

  // The pins: flat is exactly one test per guarded instruction per
  // instant; nested is well below it on this shape.
  EXPECT_EQ(Flat.guardTests(), Instants * C->Step.numGuardedInstrs());
  EXPECT_LT(Vm.guardTests(), Flat.guardTests() / 2)
      << "VM guard work regressed toward flat-level scanning";
  EXPECT_LE(Vm.executed(), Flat.executed());
}

//===----------------------------------------------------------------------===//
// Block weights: Executed is counted per block, exactly.
//===----------------------------------------------------------------------===//

TEST(VmExecutor, BlockWeightsCountExactlyOnEveryBuiltin) {
  // The typed VM adds Executed once per block (each Skip carries its
  // block's summed weight) plus a root weight per instant. The flat
  // layout guards every step instruction on its own, so its count is
  // per instruction; the nested block sums must land on it exactly,
  // with traces equal to the reference interpreter's.
  std::vector<std::pair<std::string, std::string>> Programs = {
      {"FIG5_ALARM", alarmFigure5Source()}};
  for (const Figure13Program &P : figure13Suite())
    Programs.push_back({P.Name, P.Source});
  ASSERT_EQ(Programs.size(), 8u);
  const unsigned Instants = 64;
  for (const auto &[Name, Source] : Programs) {
    auto C = compileSource("<typed:" + Name + ">", Source);
    ASSERT_TRUE(C->Ok) << Name;
    RandomEnvironment EnvRef(23);
    KernelInterp Ref(*C->Kernel, C->Clocks, *C->Forest, C->names());
    ASSERT_TRUE(Ref.run(EnvRef, Instants)) << Name;
    const std::string RefTrace =
        formatEvents(canonicalTrace(EnvRef.outputs()));
    CompiledStep FlatCS = buildFlat(*C), NestedCS = buildVm(*C);
    uint64_t FlatExecuted = 0;
    for (const CompiledStep *CS : {&FlatCS, &NestedCS}) {
      const char *Layout = CS == &FlatCS ? "flat" : "nested";
      RandomEnvironment Env(23);
      VmExecutor X(*CS);
      X.runBatched(Env, Instants, 5);
      EXPECT_EQ(formatEvents(canonicalTrace(Env.outputs())), RefTrace)
          << Name << " " << Layout;
      if (CS == &FlatCS)
        FlatExecuted = X.executed();
      else
        EXPECT_EQ(X.executed(), FlatExecuted) << Name;
      EXPECT_GT(X.executed(), 0u) << Name << " " << Layout;
    }
  }
}
