//===--- StepExecutor.cpp -------------------------------------------------===//

#include "interp/StepExecutor.h"

#include <cassert>

using namespace sigc;

void StepExecutor::reset() {
  ClockSlots.assign(Step.NumClockSlots, false);
  ValueSlots.assign(Step.NumValueSlots, Value());
  StateSlots = Step.StateInit;
}

void StepExecutor::bind(Environment &Env) {
  Bind = resolveBindings(Env, Step.ClockInputs, Step.Inputs, Step.Outputs);
  BoundIdentity = Env.identity();
}

void StepExecutor::execInstr(const StepInstr &In, Environment &Env,
                             unsigned Instant) {
  ++Executed;
  switch (In.Op) {
  case StepOp::ReadClockInput: {
    ClockSlots[In.Target] = Env.clockTick(Bind.Clocks[In.Desc], Instant);
    return;
  }
  case StepOp::EvalClockLiteral: {
    bool V = ValueSlots[In.A].asBool();
    ClockSlots[In.Target] = In.Positive ? V : !V;
    return;
  }
  case StepOp::EvalClockOp: {
    bool A = In.A >= 0 && ClockSlots[In.A];
    bool B = In.B >= 0 && ClockSlots[In.B];
    bool R = false;
    switch (In.COp) {
    case ClockOp::Inter:
      R = A && B;
      break;
    case ClockOp::Union:
      R = A || B;
      break;
    case ClockOp::Diff:
      R = A && !B;
      break;
    }
    ClockSlots[In.Target] = R;
    return;
  }
  case StepOp::ReadSignal: {
    ValueSlots[In.Target] = Env.inputValue(Bind.Inputs[In.Desc], Instant);
    return;
  }
  case StepOp::EvalFunc: {
    const KernelEq &Eq = Prog.Equations[In.EqIndex];
    std::vector<Value> Args;
    Args.reserve(Eq.Args.size());
    for (SignalId S : Eq.Args)
      Args.push_back(ValueSlots[Step.SignalValueSlot[S]]);
    ValueSlots[In.Target] = evalFuncTree(Eq, Args);
    return;
  }
  case StepOp::EvalWhen: {
    const KernelEq &Eq = Prog.Equations[In.EqIndex];
    ValueSlots[In.Target] =
        Eq.WhenValue.isSignal() ? ValueSlots[In.A] : Eq.WhenValue.Const;
    return;
  }
  case StepOp::EvalDefault: {
    if (In.A < 0) {
      ValueSlots[In.Target] = ValueSlots[In.B];
      return;
    }
    if (In.B < 0) {
      ValueSlots[In.Target] = ValueSlots[In.A];
      return;
    }
    ValueSlots[In.Target] =
        ClockSlots[In.PresA] ? ValueSlots[In.A] : ValueSlots[In.B];
    return;
  }
  case StepOp::LoadDelay:
    ValueSlots[In.Target] = StateSlots[In.A];
    return;
  case StepOp::StoreDelay:
    StateSlots[In.Target] = ValueSlots[In.A];
    return;
  case StepOp::WriteOutput: {
    Env.writeOutput(Bind.Outputs[In.Desc], Instant, ValueSlots[In.A]);
    return;
  }
  }
}

void StepExecutor::runBlock(int BlockIdx, Environment &Env,
                             unsigned Instant) {
  const StepBlock &B = Step.Blocks[BlockIdx];
  if (B.GuardSlot >= 0) {
    ++GuardTests;
    if (!ClockSlots[B.GuardSlot])
      return;
  }
  for (const StepBlock::Item &It : B.Items) {
    if (It.IsBlock)
      runBlock(It.Index, Env, Instant);
    else
      execInstr(Step.Instrs[It.Index], Env, Instant);
  }
}

void StepExecutor::step(Environment &Env, unsigned Instant, ExecMode Mode) {
  if (Env.identity() != BoundIdentity)
    bind(Env);

  // Presence is recomputed from scratch each instant.
  std::fill(ClockSlots.begin(), ClockSlots.end(), false);

  if (Mode == ExecMode::Nested) {
    runBlock(Step.RootBlock, Env, Instant);
    return;
  }
  for (const StepInstr &In : Step.Instrs) {
    if (In.Guard >= 0) {
      ++GuardTests;
      if (!ClockSlots[In.Guard])
        continue;
    }
    execInstr(In, Env, Instant);
  }
}

void StepExecutor::run(Environment &Env, unsigned Count, ExecMode Mode) {
  for (unsigned I = 0; I < Count; ++I)
    step(Env, I, Mode);
}
