//===--- NativeExecutor.h - Run a dlopen'ed native step ---------*- C++-*-===//
///
/// \file
/// Drives a loaded NativeModule against an Environment with exactly the
/// VmExecutor batch contract: bulk tick/input prefetch per descriptor,
/// one `sigc_native_run` call per batch, outputs reconstructed from the
/// declared descriptor types and flushed through exchangeOutputs() in
/// the same order an unbatched VM run records them. Traces and the
/// guard/executed counters (maintained inside the native state struct,
/// VM-exactly, by the PR 5 emitter) are byte-identical to the VM's —
/// which is what lets the tier controller hot-swap a session onto this
/// executor at any batch boundary: importState() takes the VM's delay
/// slots and counters, exportState() hands them back. stepLane() runs a
/// batch over a caller-owned tagged state block instead, which is how a
/// fleet's lanes run native with the VM's lane format.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_NATIVE_NATIVEEXECUTOR_H
#define SIGNALC_NATIVE_NATIVEEXECUTOR_H

#include "interp/VmExecutor.h"
#include "native/NativeModule.h"

#include <cstdint>
#include <vector>

namespace sigc {

/// Converts \p V to the boundary POD (all storage classes filled; the
/// consumer picks by declared type).
inline NativeValue toNative(const Value &V) {
  NativeValue N;
  N.D = V.Real;
  N.I = static_cast<long>(V.Int);
  N.B = V.Bool ? 1 : 0;
  return N;
}

/// Reconstructs a tagged Value of declared type \p T from the boundary
/// POD — the same declared-type rule the oracle's C round-trip uses.
inline Value fromNative(const NativeValue &N, TypeKind T) {
  switch (T) {
  case TypeKind::Integer:
    return Value::makeInt(N.I);
  case TypeKind::Real:
    return Value::makeReal(N.D);
  case TypeKind::Event:
    return Value::makeEvent();
  default:
    return Value::makeBool(N.B != 0);
  }
}

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
  /// delay slots as tagged Values (VmExecutor::stepLane's format), loaded
  /// into the native struct before the batch and stored back after.
  /// Counters accumulate here, as for stepN.
  void stepLane(Environment &Env, const BoundEnv &B, Value *State,
                unsigned Start, unsigned Count);

  /// Runs \p Count instants from 0 in windows of \p BatchSize.
  void runBatched(Environment &Env, unsigned Count, unsigned BatchSize);

  //===--- Hot-swap state exchange ----------------------------------------===//

  /// Imports VM state at a batch boundary: delay slots (tagged, in slot
  /// order) plus the guard/executed counters.
  void importState(const std::vector<Value> &Slots, uint64_t Guards,
                   uint64_t Executed);
  /// The delay slots as tagged Values (kinds from StateInit, like the
  /// VM's own state vector).
  std::vector<Value> exportState() const;

  uint64_t guardTests() const;
  uint64_t executed() const;
  void resetCounters() { M.setCounters(State.data(), 0, 0); }

private:
  void reserveBatch(unsigned MaxCount);
  /// One batch through `sigc_native_run` against binding \p B.
  void runBatch(Environment &Env, const BoundEnv &B, unsigned Start,
                unsigned Count);

  const CompiledStep &CS;
  const NativeModule &M;
  std::vector<unsigned char> State; ///< The opaque native state struct.
  std::vector<NativeValue> SlotBuf; ///< Delay-slot exchange scratch.
  BoundEnv Bind; ///< The environment of stepN().

  unsigned BatchCap = 0;
  std::vector<unsigned char> TickBuf; ///< [clock desc][instant].
  std::vector<Value> InVals;          ///< Prefetch scratch, one desc.
  std::vector<NativeValue> InBuf;     ///< [input desc][instant].
  std::vector<unsigned char> OutPresent; ///< [instant][flush position].
  std::vector<NativeValue> OutNative;    ///< [instant][flush position].
  std::vector<Value> OutVals;            ///< Same, reconstructed.
};

} // namespace sigc

#endif // SIGNALC_NATIVE_NATIVEEXECUTOR_H
