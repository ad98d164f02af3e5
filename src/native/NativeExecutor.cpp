//===--- NativeExecutor.cpp -----------------------------------------------===//

#include "native/NativeExecutor.h"

#include <algorithm>
#include <cassert>

using namespace sigc;

NativeExecutor::NativeExecutor(const CompiledStep &CS, const NativeModule &M)
    : CS(CS), M(M) {
  State.resize(M.stateBytes());
  SlotBuf.resize(CS.StateInit.size());
  assert(M.numStateSlots() == CS.StateInit.size() &&
         "artifact does not match the compiled step");
  reset();
}

void NativeExecutor::reset() { M.init(State.data()); }

void NativeExecutor::bind(Environment &Env) { Bind = bindEnv(Env, CS); }

void NativeExecutor::reserveBatch(unsigned MaxCount) {
  if (MaxCount <= BatchCap)
    return;
  BatchCap = MaxCount;
  TickBuf.assign(CS.ClockInputs.size() * static_cast<size_t>(BatchCap), 0);
  InVals.assign(BatchCap, Value());
  InBuf.assign(CS.Inputs.size() * static_cast<size_t>(BatchCap),
               NativeValue{});
  OutPresent.assign(static_cast<size_t>(BatchCap) * CS.Outputs.size(), 0);
  OutNative.assign(static_cast<size_t>(BatchCap) * CS.Outputs.size(),
                   NativeValue{});
  OutVals.assign(static_cast<size_t>(BatchCap) * CS.Outputs.size(), Value());
}

void NativeExecutor::stepN(Environment &Env, unsigned Start, unsigned Count) {
  if (Env.identity() != Bind.Identity)
    bind(Env);
  runBatch(Env, Bind, Start, Count);
}

void NativeExecutor::stepLane(Environment &Env, const BoundEnv &B,
                              Value *Lane, unsigned Start, unsigned Count) {
  for (size_t I = 0; I < SlotBuf.size(); ++I)
    SlotBuf[I] = toNative(Lane[I]);
  M.setState(State.data(), SlotBuf.data());
  runBatch(Env, B, Start, Count);
  M.getState(State.data(), SlotBuf.data());
  for (size_t I = 0; I < SlotBuf.size(); ++I)
    Lane[I] = fromNative(SlotBuf[I], CS.StateInit[I].Kind);
}

void NativeExecutor::runBatch(Environment &Env, const BoundEnv &B,
                              unsigned Start, unsigned Count) {
  if (Count == 0)
    return;
  reserveBatch(Count);

  const unsigned NumOut = static_cast<unsigned>(CS.Outputs.size());

  for (size_t D = 0; D < CS.ClockInputs.size(); ++D)
    Env.clockTicks(B.Ids.Clocks[D], Start, Count, &TickBuf[D * BatchCap]);
  for (size_t D = 0; D < CS.Inputs.size(); ++D) {
    Env.inputValues(B.Ids.Inputs[D], Start, Count, InVals.data());
    NativeValue *Col = &InBuf[D * BatchCap];
    for (unsigned I = 0; I < Count; ++I)
      Col[I] = toNative(InVals[I]);
  }

  M.run(State.data(), TickBuf.data(), BatchCap, InBuf.data(), BatchCap,
        OutPresent.data(), OutNative.data(), Count);

  // Reconstruct tagged outputs by declared type, then flush exactly as
  // the VM does.
  for (unsigned I = 0; I < Count; ++I)
    for (unsigned Pos = 0; Pos < NumOut; ++Pos) {
      size_t At = static_cast<size_t>(I) * NumOut + Pos;
      if (OutPresent[At])
        OutVals[At] = fromNative(
            OutNative[At], CS.Outputs[CS.OutputFlushOrder[Pos]].Type);
    }
  Env.exchangeOutputs(Start, Count, NumOut, B.FlushIds.data(),
                      OutPresent.data(), OutVals.data());
}

void NativeExecutor::runBatched(Environment &Env, unsigned Count,
                                unsigned BatchSize) {
  if (BatchSize == 0)
    BatchSize = 1;
  for (unsigned Start = 0; Start < Count; Start += BatchSize)
    stepN(Env, Start, std::min(BatchSize, Count - Start));
}

void NativeExecutor::importState(const std::vector<Value> &Slots,
                                 uint64_t Guards, uint64_t Executed) {
  assert(Slots.size() == CS.StateInit.size() &&
         "state snapshot does not match the compiled step");
  for (size_t I = 0; I < Slots.size(); ++I)
    SlotBuf[I] = toNative(Slots[I]);
  M.setState(State.data(), SlotBuf.data());
  M.setCounters(State.data(), Guards, Executed);
}

std::vector<Value> NativeExecutor::exportState() const {
  std::vector<NativeValue> N(CS.StateInit.size());
  M.getState(State.data(), N.data());
  std::vector<Value> Out(N.size());
  for (size_t I = 0; I < N.size(); ++I)
    Out[I] = fromNative(N[I], CS.StateInit[I].Kind);
  return Out;
}

uint64_t NativeExecutor::guardTests() const {
  unsigned long long G = 0, E = 0;
  M.getCounters(State.data(), &G, &E);
  return G;
}

uint64_t NativeExecutor::executed() const {
  unsigned long long G = 0, E = 0;
  M.getCounters(State.data(), &G, &E);
  return E;
}
