//===--- FleetExecutor.h - One program, many instances ----------*- C++-*-===//
///
/// \file
/// Executes a fleet of independent instances of one CompiledStep — many
/// sessions (one per device or user) of the *same* compiled program.
/// The paper compiles a process to one sequential step over a state
/// block, so an instance is nothing more than a state block: a fleet is
/// N scalar lanes stepped by that one step.
///
///   * a lane is one delay-state block (8-byte Slots, contiguous per
///     lane: the format both the VM and `sigc_native_set_state` read)
///     plus its environment binding; a checkpoint is a copy of the block,
///   * each shard owns one scalar workspace — a VmExecutor running
///     stepLane() over the lane's block, or, after setNative(), a
///     NativeExecutor doing the same through the module's
///     `sigc_native_run` — and steps its lanes one after another, each
///     through the whole window. Batch buffers belong to the shard, so
///     memory does not grow with the lane count,
///   * contiguous lane ranges, aligned to Config::LaneBlock, shard across
///     std::threads, one per shard per call; a shard steps its lanes
///     through every window of the call. Shards share nothing mutable,
///     and each lane owns its Environment, so the result is
///     deterministic for any thread count.
///
/// Every lane runs exactly the scalar window, so per-lane traces equal
/// scalar runs and guardTests()/executed() are the exact sums of the
/// per-instance scalar counts — pinned by the differential oracle.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_INTERP_FLEETEXECUTOR_H
#define SIGNALC_INTERP_FLEETEXECUTOR_H

#include "interp/CompiledStep.h"
#include "interp/Environment.h"
#include "interp/VmExecutor.h"
#include "native/NativeExecutor.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace sigc {

/// Runs a CompiledStep across a fleet of instances.
class FleetExecutor {
public:
  struct Config {
    /// Shard granularity: lane ranges handed to threads are multiples of
    /// this many lanes (the last range may be shorter).
    unsigned LaneBlock = 64;
    /// Worker threads lane ranges are sharded across. 1 executes inline
    /// on the calling thread (and is the allocation-free path: spawning
    /// std::threads allocates).
    unsigned Threads = 1;
  };

  FleetExecutor(const CompiledStep &CS, unsigned Instances, Config Cfg);
  FleetExecutor(const CompiledStep &CS, unsigned Instances)
      : FleetExecutor(CS, Instances, Config()) {}

  unsigned instances() const { return NumInstances; }
  unsigned laneBlock() const { return Cfg.LaneBlock; }
  unsigned threads() const { return Cfg.Threads; }

  /// Re-initializes every instance's delay state.
  void reset() { resetLanes(0, NumInstances); }

  /// Re-initializes the delay state of instances [First, First+Num) only
  /// — a lane range being handed to a new session keeps the rest of the
  /// fleet untouched.
  void resetLanes(unsigned First, unsigned Num);

  /// Resolves the environment bindings of every instance now (otherwise
  /// done lazily when a step sees an unbound environment).
  /// \p Envs has one environment per instance; instance i only ever
  /// touches Envs[i], so per-instance environments make the threaded
  /// run share no mutable state.
  void bind(const std::vector<Environment *> &Envs);

  /// (Re)binds one instance to \p Env — sessions come and go
  /// independently, and rebinding a joining session's lane must not
  /// touch the rest of the fleet.
  void bindInstance(unsigned Inst, Environment &Env);

  /// Runs \p Count reactions starting at instant \p Start for every
  /// instance; each lane runs the scalar window, so its outputs flush in
  /// exactly the order a scalar run records them.
  void stepN(const std::vector<Environment *> &Envs, unsigned Start,
             unsigned Count);

  /// Runs \p Count reactions starting at instant \p Start for instances
  /// [First, First+Num) only, leaving every other lane untouched. \p Envs
  /// is indexed by absolute instance id (entries outside the range are
  /// not read). Unlike stepN, different lane ranges may sit at different
  /// instants — the serving front end's shape, where each session is a
  /// lane advancing at its own pace. Single-threaded: sessions are
  /// small slices; the thread pool belongs to whole-fleet windows.
  void stepLanes(const std::vector<Environment *> &Envs, unsigned First,
                 unsigned Num, unsigned Start, unsigned Count);

  /// Runs \p Count reactions starting at instant 0 in windows of
  /// RunWindow instants.
  void run(const std::vector<Environment *> &Envs, unsigned Count) {
    runBatched(Envs, Count, RunWindow);
  }

  /// Runs \p Count reactions starting at instant 0 in windows of
  /// \p Window instants (0 counts as 1); the window bounds the shard
  /// buffers' footprint.
  void runBatched(const std::vector<Environment *> &Envs, unsigned Count,
                  unsigned Window);

  /// Guard tests summed over every instance; equals the sum of scalar
  /// per-instance VmExecutor counts on the same traces.
  uint64_t guardTests() const { return GuardTests; }
  /// Instructions executed summed over every instance.
  uint64_t executed() const { return Executed; }
  void resetCounters() {
    GuardTests = 0;
    Executed = 0;
  }

  /// Delay-state slots per instance — the size of a lane checkpoint.
  unsigned stateSlots() const {
    return static_cast<unsigned>(CS.StateInit.size());
  }

  /// Copies instance \p Inst's delay state into \p Out (resized to
  /// stateSlots()). Slots are plain 8-byte words, so a saved vector is a
  /// complete, relocatable checkpoint of the lane: taken at a frame
  /// boundary it captures everything the next reaction depends on
  /// beyond the stimulus itself — the serve front end's session-resume
  /// snapshot.
  void saveLaneState(unsigned Inst, std::vector<Slot> &Out) const;

  /// Restores a checkpoint taken by saveLaneState onto instance \p Inst
  /// (any instance of any executor compiled from the same step).
  void restoreLaneState(unsigned Inst, const std::vector<Slot> &In);

  /// Runs subsequent windows through \p M's `sigc_native_run` (nullptr
  /// returns to the interpreter). The swap is a pure dispatch change at a
  /// window boundary: lane state blocks keep the one slot format both
  /// tiers read and write, so checkpoints, resetLanes and mixed
  /// interpreted/native windows keep working unchanged, and counters
  /// keep their scalar-sum meaning. \p M must be a validated module for
  /// this same CompiledStep and must outlive its use here.
  void setNative(const NativeModule *M);
  bool nativeActive() const { return Shards[0].Native != nullptr; }

private:
  /// One worker's workspace and lane range. Constructed up front and
  /// reused; nothing here is shared.
  struct Shard {
    Shard(const CompiledStep &CS,
          std::shared_ptr<const VmExecutor::TypedCode> Code)
        : Vm(CS, std::move(Code)) {}
    unsigned First = 0;
    unsigned End = 0;
    VmExecutor Vm;
    std::unique_ptr<NativeExecutor> Native; ///< Set while native.
  };

  /// Runs instants [Start, Start+Count) of every instance in windows of
  /// \p Window instants; each shard steps its own lanes through all of
  /// them on one thread.
  void runWindows(const std::vector<Environment *> &Envs, unsigned Start,
                  unsigned Count, unsigned Window);
  /// Steps lanes [First, End) through one window on \p S's workspace.
  void runLanes(Shard &S, const std::vector<Environment *> &Envs,
                unsigned First, unsigned End, unsigned Start,
                unsigned Count);
  /// Folds \p S's counters into the fleet totals and zeroes them.
  void collectCounters(Shard &S);
  Slot *laneState(unsigned Inst) {
    return States.data() + static_cast<size_t>(Inst) * stateSlots();
  }

  const CompiledStep &CS;
  unsigned NumInstances;
  Config Cfg;

  std::vector<Slot> StateInit;   ///< One lane's initial block.
  std::vector<Slot> States;      ///< [instance][state slot].
  std::vector<BoundEnv> Binds;   ///< Per instance.
  std::vector<Shard> Shards;     ///< Shards[0] also serves stepLanes.

  uint64_t GuardTests = 0;
  uint64_t Executed = 0;
};

} // namespace sigc

#endif // SIGNALC_INTERP_FLEETEXECUTOR_H
