//===--- NativeExecutor.h - Run a dlopen'ed native step ---------*- C++-*-===//
///
/// \file
/// Drives a loaded NativeModule against an Environment with exactly the
/// VmExecutor batch contract, through the same BatchIO: bulk tick/input
/// prefetch into typed slot columns, one `sigc_native_run` call per
/// batch over them, and the output slots flushed through
/// exchangeOutputs() in the order the VM's window records them.
/// Traces and the guard/executed counters (maintained inside the native
/// state struct, VM-exactly, by the emitter) are byte-identical to the
/// VM's — which is what lets the tier controller hot-swap a session onto
/// this executor at any batch boundary: importState() takes the VM's delay
/// slots and counters, exportState() hands them back. stepLane() runs a
/// batch over a caller-owned Slot state block instead, handing the lane
/// pointer straight to `sigc_native_set_state`/`get_state`, which is how
/// a fleet's lanes run native in the VM's lane format.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_NATIVE_NATIVEEXECUTOR_H
#define SIGNALC_NATIVE_NATIVEEXECUTOR_H

#include "interp/BatchIO.h"
#include "native/NativeModule.h"

#include <cstdint>
#include <vector>

namespace sigc {

class NativeExecutor {
public:
  /// \p M must stay loaded for the executor's lifetime.
  NativeExecutor(const CompiledStep &CS, const NativeModule &M);

  /// Re-initializes the native state struct (counters included).
  void reset();

  /// Resolves the environment binding now (otherwise lazily on first
  /// step with a new environment).
  void bind(Environment &Env);

  /// Runs \p Count instants starting at \p Start.
  void stepN(Environment &Env, unsigned Start, unsigned Count);

  /// Runs \p Count instants of a caller-owned lane: \p State holds its
  /// delay slots (VmExecutor::stepLane's format), loaded into the native
  /// struct before the batch and stored back after. Counters accumulate
  /// here, as for stepN.
  void stepLane(Environment &Env, const BoundEnv &B, Slot *State,
                unsigned Start, unsigned Count);

  /// Runs \p Count instants from 0 in windows of \p BatchSize.
  void runBatched(Environment &Env, unsigned Count, unsigned BatchSize);

  //===--- Hot-swap state exchange ----------------------------------------===//

  /// Imports VM state at a batch boundary: delay slots (in slot order)
  /// plus the guard/executed counters.
  void importState(const std::vector<Slot> &Slots, uint64_t Guards,
                   uint64_t Executed);
  /// The delay slots, in the VM's state format.
  std::vector<Slot> exportState() const;

  uint64_t guardTests() const;
  uint64_t executed() const;
  void resetCounters() { M.setCounters(State.data(), 0, 0); }

private:
  /// One batch through `sigc_native_run` against binding \p B.
  void runBatch(Environment &Env, const BoundEnv &B, unsigned Start,
                unsigned Count);

  const CompiledStep &CS;
  const NativeModule &M;
  std::vector<unsigned char> State; ///< The opaque native state struct.
  BoundEnv Bind; ///< The environment of stepN().
  BatchIO IO;
};

} // namespace sigc

#endif // SIGNALC_NATIVE_NATIVEEXECUTOR_H
