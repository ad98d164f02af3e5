//===--- BatchIO.cpp ------------------------------------------------------===//

#include "interp/BatchIO.h"

using namespace sigc;

BoundEnv sigc::bindEnv(Environment &Env, const CompiledStep &CS) {
  BoundEnv B;
  B.Ids = resolveBindings(Env, CS.ClockInputs, CS.Inputs, CS.Outputs);
  B.Identity = Env.identity();
  // Batch-flush positions are the code order of the WriteOutput
  // instructions; each maps to the environment id just bound.
  B.FlushIds.reserve(CS.OutputFlushOrder.size());
  for (int32_t Desc : CS.OutputFlushOrder)
    B.FlushIds.push_back(B.Ids.Outputs[Desc]);
  return B;
}

void BatchIO::reserve(unsigned MaxCount) {
  if (MaxCount <= Cap)
    return;
  Cap = MaxCount;
  Ticks.assign(CS.ClockInputs.size() * static_cast<size_t>(Cap), 0);
  Ins.assign(CS.Inputs.size() * static_cast<size_t>(Cap), Slot{});
  InVals.assign(Cap, Value());
  OutPresent.assign(static_cast<size_t>(Cap) * CS.Outputs.size(), 0);
  Outs.assign(static_cast<size_t>(Cap) * CS.Outputs.size(), Slot{});
  OutVals.assign(static_cast<size_t>(Cap) * CS.Outputs.size(), Value());
}

void BatchIO::prefetch(Environment &Env, const BoundEnv &B, unsigned Start,
                       unsigned Count) {
  reserve(Count);
  // One boundary crossing per descriptor for the whole window.
  for (size_t D = 0; D < CS.ClockInputs.size(); ++D)
    Env.clockTicks(B.Ids.Clocks[D], Start, Count, &Ticks[D * Cap]);
  for (size_t D = 0; D < CS.Inputs.size(); ++D) {
    Env.inputValues(B.Ids.Inputs[D], Start, Count, InVals.data());
    Slot *Col = &Ins[D * Cap];
    for (unsigned I = 0; I < Count; ++I)
      Col[I] = toSlot(InVals[I], CS.Inputs[D].Type);
  }
}

void BatchIO::flush(Environment &Env, const BoundEnv &B, unsigned Start,
                    unsigned Count) {
  const size_t NumOut = CS.OutputFlushOrder.size();
  for (unsigned I = 0; I < Count; ++I)
    for (size_t Pos = 0; Pos < NumOut; ++Pos) {
      size_t At = I * NumOut + Pos;
      if (OutPresent[At])
        OutVals[At] = toValue(Outs[At],
                              CS.Outputs[CS.OutputFlushOrder[Pos]].Type);
    }
  // One crossing back, instant by instant.
  Env.exchangeOutputs(Start, Count, static_cast<unsigned>(NumOut),
                      B.FlushIds.data(), OutPresent.data(), OutVals.data());
}
