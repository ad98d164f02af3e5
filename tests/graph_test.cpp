//===--- graph_test.cpp - Conditional dependency graph & schedule ---------===//

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <unordered_map>

using namespace sigc;
using namespace sigc::test;

namespace {

/// Position of each action in the schedule.
std::unordered_map<int, int> positions(const CondDepGraph &G) {
  std::unordered_map<int, int> Pos;
  for (unsigned I = 0; I < G.schedule().size(); ++I)
    Pos[G.schedule()[I]] = static_cast<int>(I);
  return Pos;
}

/// Id of the signal spelled \p Name in \p C.
SignalId signalNamed(Compilation &C, const std::string &Name) {
  for (SignalId S = 0; S < C.Kernel->numSignals(); ++S)
    if (C.names().spelling(C.Kernel->Signals[S].Name) == Name)
      return S;
  ADD_FAILURE() << "no signal " << Name;
  return InvalidSignal;
}

} // namespace

TEST(Graph, ScheduleIsTopological) {
  auto C = compileOk(proc("? integer A; boolean C1; ! integer Y;",
                          "   T := A when C1\n   | Y := T + (T $ 1 init 0)",
                          "integer T;"));
  auto Pos = positions(C->Graph);
  for (unsigned From = 0; From < C->Graph.actions().size(); ++From)
    for (int To : C->Graph.successors()[From])
      EXPECT_LT(Pos[static_cast<int>(From)], Pos[To]);
}

TEST(Graph, ScheduleCoversAllActions) {
  auto C = compileOk(proc("? integer A, B; ! integer Y;",
                          "   Y := A default B"));
  EXPECT_EQ(C->Graph.schedule().size(), C->Graph.actions().size());
}

TEST(Graph, DelayBreaksCycles) {
  // Y := Y $ 1 + A is fine: the delay provides the old value.
  compileOk(proc("? integer A; ! integer Y;",
                 "   Y := (Y $ 1 init 0) + A"));
}

TEST(Graph, InstantaneousCycleRejected) {
  auto C = compileErr(proc("? integer A; ! integer Y;",
                           "   Y := Z + A\n   | Z := Y + A",
                           "integer Z;"),
                      CompileStage::Graph);
  EXPECT_NE(C->Diags.render().find("dependency cycle"), std::string::npos);
}

TEST(Graph, SelfCycleRejected) {
  compileErr(proc("? integer A; ! integer Y;", "   Y := Y + A"), CompileStage::Graph);
}

TEST(Graph, StoreDelayAfterLoadAndSource) {
  auto C = compileOk(proc("? integer A; ! integer Y;",
                          "   Z := A $ 1 init 0\n   | Y := A + Z",
                          "integer Z;"));
  auto Pos = positions(C->Graph);
  int Load = -1, Store = -1, SourceEval = -1;
  for (unsigned I = 0; I < C->Graph.actions().size(); ++I) {
    const Action &Act = C->Graph.actions()[I];
    if (Act.Kind == ActionKind::LoadDelay)
      Load = static_cast<int>(I);
    if (Act.Kind == ActionKind::StoreDelay)
      Store = static_cast<int>(I);
    if (Act.Kind == ActionKind::SignalInput)
      SourceEval = static_cast<int>(I);
  }
  ASSERT_GE(Load, 0);
  ASSERT_GE(Store, 0);
  ASSERT_GE(SourceEval, 0);
  EXPECT_LT(Pos[Load], Pos[Store]);
  EXPECT_LT(Pos[SourceEval], Pos[Store]);
}

TEST(Graph, ConditionValueBeforeLiteralClock) {
  auto C = compileOk(proc("? integer A; boolean C1; ! integer Y;",
                          "   Y := A when C1"));
  auto Pos = positions(C->Graph);
  int CondRead = -1, LitEval = -1;
  for (unsigned I = 0; I < C->Graph.actions().size(); ++I) {
    const Action &Act = C->Graph.actions()[I];
    if (Act.Kind == ActionKind::SignalInput && Act.Sig != InvalidSignal) {
      std::string Name(
          C->names().spelling(C->Kernel->Signals[Act.Sig].Name));
      if (Name == "C1")
        CondRead = static_cast<int>(I);
    }
    if (Act.Kind == ActionKind::ClockEval &&
        C->Forest->node(Act.Clock).Def == ClockDefKind::Literal)
      LitEval = static_cast<int>(I);
  }
  ASSERT_GE(CondRead, 0);
  ASSERT_GE(LitEval, 0);
  EXPECT_LT(Pos[CondRead], Pos[LitEval]);
}

TEST(Graph, OutputsAfterValues) {
  auto C = compileOk(proc("? integer A; ! integer Y;", "   Y := A + 1"));
  auto Pos = positions(C->Graph);
  int Eval = -1, Out = -1;
  for (unsigned I = 0; I < C->Graph.actions().size(); ++I) {
    const Action &Act = C->Graph.actions()[I];
    if (Act.Kind == ActionKind::SignalEval)
      Eval = static_cast<int>(I);
    if (Act.Kind == ActionKind::WriteOutput)
      Out = static_cast<int>(I);
  }
  ASSERT_GE(Eval, 0);
  ASSERT_GE(Out, 0);
  EXPECT_LT(Pos[Eval], Pos[Out]);
}

TEST(Graph, NullClockSignalsHaveNoActions) {
  auto C = compileOk(proc("? integer A; boolean CC; ! integer Y;",
                          "   synchro {A, CC}\n"
                          "   | T := A when CC\n"
                          "   | U := T when (not CC)\n"
                          "   | Y := A default U",
                          "integer T, U;"));
  // U's clock is empty: no SignalEval action may mention U.
  for (const Action &Act : C->Graph.actions()) {
    if (Act.Sig == InvalidSignal)
      continue;
    std::string Name(C->names().spelling(C->Kernel->Signals[Act.Sig].Name));
    EXPECT_NE(Name, "U");
  }
}

TEST(Graph, ActionKindNames) {
  EXPECT_STREQ(actionKindName(ActionKind::ClockInput), "clock-input");
  EXPECT_STREQ(actionKindName(ActionKind::StoreDelay), "store-delay");
}

TEST(Graph, EdgeCountPositive) {
  auto C = compileOk(proc("? integer A; ! integer Y;", "   Y := A"));
  EXPECT_GT(C->Graph.numEdges(), 0u);
}

TEST(Graph, DumpListsActions) {
  auto C = compileOk(proc("? integer A; ! integer Y;", "   Y := A"));
  std::string D =
      C->Graph.dump(*C->Kernel, C->names(), *C->Forest, C->Clocks);
  EXPECT_NE(D.find("signal-input A"), std::string::npos) << D;
  EXPECT_NE(D.find("write-output Y"), std::string::npos) << D;
}

TEST(Graph, DeterministicSchedule) {
  std::string Source = proc("? integer A; boolean C1, C2; ! integer Y;",
                            "   T1 := A when C1\n   | T2 := A when C2\n"
                            "   | Y := T1 default T2",
                            "integer T1, T2;");
  auto C1 = compileOk(Source);
  auto C2 = compileOk(Source);
  EXPECT_EQ(C1->Graph.schedule(), C2->Graph.schedule());
}

TEST(Graph, SiblingClocksEachOpenOneBlock) {
  // Two sibling clocks [C1] and [C2] under one root, whose equations
  // alternate by signal index: T1, T2, U1, U2, ... A smallest-index
  // schedule ping-pongs between them and reopens a block per signal;
  // the clock-clustered schedule finishes one clock's chain before it
  // starts the other's.
  auto C = compileOk(proc("? integer A; boolean C1, C2; ! integer Y1, Y2;",
                          "   synchro {A, C1, C2}\n"
                          "   | T1 := A when C1\n"
                          "   | T2 := A when C2\n"
                          "   | U1 := T1 + 1\n"
                          "   | U2 := T2 + 1\n"
                          "   | V1 := U1 * U1\n"
                          "   | V2 := U2 * U2\n"
                          "   | Y1 := V1 - T1\n"
                          "   | Y2 := V2 - T2",
                          "integer T1, T2, U1, U2, V1, V2;"));
  if (!C->Ok)
    return;
  for (const char *Sig : {"T1", "T2"}) {
    int Slot = C->Step.SignalClockSlot[signalNamed(*C, Sig)];
    ASSERT_GE(Slot, 0);
    unsigned Opened = 0;
    for (const StepBlock &B : C->Step.Blocks)
      Opened += B.GuardSlot == Slot;
    EXPECT_EQ(Opened, 1u) << "clock of " << Sig << "\n"
                          << C->Graph.dump(*C->Kernel, C->names(),
                                           *C->Forest, C->Clocks);
  }
}
