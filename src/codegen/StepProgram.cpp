//===--- StepProgram.cpp --------------------------------------------------===//

#include "codegen/StepProgram.h"

using namespace sigc;

const char *sigc::stepOpName(StepOp Op) {
  switch (Op) {
  case StepOp::ReadClockInput:
    return "read-clock";
  case StepOp::EvalClockLiteral:
    return "clock-literal";
  case StepOp::EvalClockOp:
    return "clock-op";
  case StepOp::ReadSignal:
    return "read-signal";
  case StepOp::EvalFunc:
    return "eval-func";
  case StepOp::EvalWhen:
    return "eval-when";
  case StepOp::EvalDefault:
    return "eval-default";
  case StepOp::LoadDelay:
    return "load-delay";
  case StepOp::StoreDelay:
    return "store-delay";
  case StepOp::WriteOutput:
    return "write-output";
  }
  return "<bad>";
}

unsigned StepProgram::numGuardedInstrs() const {
  unsigned N = 0;
  for (const StepInstr &In : Instrs)
    N += In.Guard >= 0;
  return N;
}

std::string StepProgram::dump() const {
  std::string Out;
  for (unsigned I = 0; I < Instrs.size(); ++I) {
    const StepInstr &In = Instrs[I];
    Out += "  [" + std::to_string(I) + "] ";
    if (In.Guard >= 0)
      Out += "if c" + std::to_string(In.Guard) + ": ";
    Out += stepOpName(In.Op);
    Out += " t=" + std::to_string(In.Target);
    if (In.A >= 0)
      Out += " a=" + std::to_string(In.A);
    if (In.B >= 0)
      Out += " b=" + std::to_string(In.B);
    if (In.EqIndex >= 0)
      Out += " eq=" + std::to_string(In.EqIndex);
    Out += "\n";
  }
  return Out;
}

void StepProgram::dumpBlock(int BlockIdx, unsigned Indent,
                            std::string &Out) const {
  const StepBlock &B = Blocks[BlockIdx];
  std::string Pad(Indent * 2, ' ');
  if (B.GuardSlot >= 0)
    Out += Pad + "if c" + std::to_string(B.GuardSlot) + " {\n";
  for (const StepBlock::Item &It : B.Items) {
    if (It.IsBlock) {
      dumpBlock(It.Index, Indent + (B.GuardSlot >= 0 ? 1 : 0), Out);
      continue;
    }
    const StepInstr &In = Instrs[It.Index];
    Out += Pad + (B.GuardSlot >= 0 ? "  " : "") + stepOpName(In.Op) + " t=" +
           std::to_string(In.Target) + "\n";
  }
  if (B.GuardSlot >= 0)
    Out += Pad + "}\n";
}

std::string StepProgram::dumpNested() const {
  std::string Out;
  if (RootBlock >= 0)
    dumpBlock(RootBlock, 0, Out);
  return Out;
}
