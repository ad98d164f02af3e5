//===--- FleetExecutor.cpp ------------------------------------------------===//

#include "interp/FleetExecutor.h"

#include <algorithm>
#include <cassert>
#include <thread>

using namespace sigc;

FleetExecutor::FleetExecutor(const CompiledStep &CS, unsigned Instances,
                             Config Cfg)
    : CS(CS), NumInstances(Instances), Cfg(Cfg), StateInit(initialState(CS)) {
  this->Cfg.LaneBlock = std::max(1u, Cfg.LaneBlock);
  this->Cfg.Threads = std::max(1u, Cfg.Threads);
  const unsigned K = this->Cfg.LaneBlock;

  States.resize(static_cast<size_t>(NumInstances) * stateSlots());
  Binds.resize(NumInstances);
  reset();

  // Shard the fleet into contiguous, LaneBlock-aligned lane ranges — one
  // per worker.
  unsigned NumBlocks = (NumInstances + K - 1) / K;
  unsigned NumShards = std::max(1u, std::min(this->Cfg.Threads, NumBlocks));
  Shards.reserve(NumShards);
  unsigned PerShard = NumBlocks / NumShards;
  unsigned Extra = NumBlocks % NumShards;
  unsigned Block = 0;
  for (unsigned S = 0; S < NumShards; ++S) {
    // The shards share the first one's typed code.
    Shards.emplace_back(CS, S ? Shards[0].Vm.typedCode() : nullptr);
    Shards[S].First = std::min(Block * K, NumInstances);
    Block += PerShard + (S < Extra ? 1 : 0);
    Shards[S].End = std::min(Block * K, NumInstances);
  }
}

void FleetExecutor::resetLanes(unsigned First, unsigned Num) {
  assert(First + Num <= NumInstances && "lane range out of bounds");
  for (unsigned Inst = First; Inst < First + Num; ++Inst)
    std::copy(StateInit.begin(), StateInit.end(), laneState(Inst));
}

void FleetExecutor::bind(const std::vector<Environment *> &Envs) {
  assert(Envs.size() >= NumInstances && "one environment per instance");
  for (unsigned Inst = 0; Inst < NumInstances; ++Inst)
    bindInstance(Inst, *Envs[Inst]);
}

void FleetExecutor::bindInstance(unsigned Inst, Environment &Env) {
  assert(Inst < NumInstances && "instance out of range");
  Binds[Inst] = bindEnv(Env, CS);
}

void FleetExecutor::saveLaneState(unsigned Inst,
                                  std::vector<Slot> &Out) const {
  assert(Inst < NumInstances && "instance out of range");
  auto Lane = States.begin() + static_cast<size_t>(Inst) * stateSlots();
  Out.assign(Lane, Lane + stateSlots());
}

void FleetExecutor::restoreLaneState(unsigned Inst,
                                     const std::vector<Slot> &In) {
  assert(Inst < NumInstances && "instance out of range");
  assert(In.size() == stateSlots() &&
         "checkpoint shape does not match the compiled step");
  std::copy(In.begin(), In.end(), laneState(Inst));
}

void FleetExecutor::setNative(const NativeModule *M) {
  assert((!M || M->numStateSlots() == CS.StateInit.size()) &&
         "native module compiled from a different step");
  for (Shard &S : Shards)
    S.Native = M ? std::make_unique<NativeExecutor>(CS, *M) : nullptr;
}

void FleetExecutor::runLanes(Shard &S, const std::vector<Environment *> &Envs,
                             unsigned First, unsigned End, unsigned Start,
                             unsigned Count) {
  for (unsigned Inst = First; Inst < End; ++Inst) {
    if (S.Native)
      S.Native->stepLane(*Envs[Inst], Binds[Inst], laneState(Inst), Start,
                         Count);
    else
      S.Vm.stepLane(*Envs[Inst], Binds[Inst], laneState(Inst), Start, Count);
  }
}

void FleetExecutor::collectCounters(Shard &S) {
  GuardTests += S.Vm.guardTests();
  Executed += S.Vm.executed();
  S.Vm.resetCounters();
  if (S.Native) {
    GuardTests += S.Native->guardTests();
    Executed += S.Native->executed();
    S.Native->resetCounters();
  }
}

void FleetExecutor::stepN(const std::vector<Environment *> &Envs,
                          unsigned Start, unsigned Count) {
  runWindows(Envs, Start, Count, Count);
}

void FleetExecutor::runBatched(const std::vector<Environment *> &Envs,
                               unsigned Count, unsigned Window) {
  runWindows(Envs, 0, Count, std::max(Window, 1u));
}

void FleetExecutor::runWindows(const std::vector<Environment *> &Envs,
                               unsigned Start, unsigned Count,
                               unsigned Window) {
  if (Count == 0 || NumInstances == 0)
    return;
  assert(Envs.size() >= NumInstances && "one environment per instance");

  // Cold path: (re)bind any instance whose environment changed. Serial on
  // purpose — binding interns names and allocates; the lanes do neither.
  for (unsigned Inst = 0; Inst < NumInstances; ++Inst)
    if (Envs[Inst]->identity() != Binds[Inst].Identity)
      bindInstance(Inst, *Envs[Inst]);

  // Lanes are independent, so a shard steps all windows of its lanes
  // without waiting for the other shards: one thread per shard per call,
  // not per window.
  const unsigned End = Start + Count;
  auto RunShard = [&](Shard &S) {
    for (unsigned At = Start; At < End; At += Window)
      runLanes(S, Envs, S.First, S.End, At, std::min(Window, End - At));
  };
  if (Shards.size() == 1) {
    // Inline execution: the allocation-free path (thread spawn allocates).
    RunShard(Shards[0]);
  } else {
    std::vector<std::thread> Workers;
    Workers.reserve(Shards.size());
    for (Shard &S : Shards)
      Workers.emplace_back([&RunShard, &S] { RunShard(S); });
    for (std::thread &T : Workers)
      T.join();
  }

  // Deterministic counter aggregation: shard totals fold in shard order.
  for (Shard &S : Shards)
    collectCounters(S);
}

void FleetExecutor::stepLanes(const std::vector<Environment *> &Envs,
                              unsigned First, unsigned Num, unsigned Start,
                              unsigned Count) {
  if (Count == 0 || Num == 0)
    return;
  assert(First + Num <= NumInstances && "lane range out of bounds");
  assert(Envs.size() >= First + Num && "environments cover the lane range");

  for (unsigned Inst = First; Inst < First + Num; ++Inst)
    if (Envs[Inst]->identity() != Binds[Inst].Identity)
      bindInstance(Inst, *Envs[Inst]);

  runLanes(Shards[0], Envs, First, First + Num, Start, Count);
  collectCounters(Shards[0]);
}
