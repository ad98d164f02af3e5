//===--- NativeExecutor.cpp -----------------------------------------------===//

#include "native/NativeExecutor.h"

#include <algorithm>
#include <cassert>

using namespace sigc;

NativeExecutor::NativeExecutor(const CompiledStep &CS, const NativeModule &M)
    : CS(CS), M(M), IO(CS) {
  State.resize(M.stateBytes());
  assert(M.numStateSlots() == CS.StateInit.size() &&
         "artifact does not match the compiled step");
  reset();
}

void NativeExecutor::reset() { M.init(State.data()); }

void NativeExecutor::bind(Environment &Env) { Bind = bindEnv(Env, CS); }

void NativeExecutor::stepN(Environment &Env, unsigned Start, unsigned Count) {
  if (Env.identity() != Bind.Identity)
    bind(Env);
  runBatch(Env, Bind, Start, Count);
}

void NativeExecutor::stepLane(Environment &Env, const BoundEnv &B,
                              Slot *Lane, unsigned Start, unsigned Count) {
  M.setState(State.data(), Lane);
  runBatch(Env, B, Start, Count);
  M.getState(State.data(), Lane);
}

void NativeExecutor::runBatch(Environment &Env, const BoundEnv &B,
                              unsigned Start, unsigned Count) {
  if (Count == 0)
    return;
  IO.prefetch(Env, B, Start, Count);
  M.run(State.data(), IO.Ticks.data(), IO.capacity(), IO.Ins.data(),
        IO.capacity(), IO.OutPresent.data(), IO.Outs.data(), Count);
  IO.flush(Env, B, Start, Count);
}

void NativeExecutor::runBatched(Environment &Env, unsigned Count,
                                unsigned BatchSize) {
  if (BatchSize == 0)
    BatchSize = 1;
  for (unsigned Start = 0; Start < Count; Start += BatchSize)
    stepN(Env, Start, std::min(BatchSize, Count - Start));
}

void NativeExecutor::importState(const std::vector<Slot> &Slots,
                                 uint64_t Guards, uint64_t Executed) {
  assert(Slots.size() == CS.StateInit.size() &&
         "state snapshot does not match the compiled step");
  M.setState(State.data(), Slots.data());
  M.setCounters(State.data(), Guards, Executed);
}

std::vector<Slot> NativeExecutor::exportState() const {
  std::vector<Slot> Out(CS.StateInit.size());
  M.getState(State.data(), Out.data());
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
