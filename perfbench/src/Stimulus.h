//===--- Stimulus.h - Recorded stimulus and replay --------------*- C++-*-===//
///
/// \file
/// Seeded stimulus recorded into the binary trace format, replay of a
/// recording through the VM or the native tier with outputs encoded to
/// memory, and the reference check: KernelInterp, the fixpoint
/// interpreter that shares no scheduling, lowering or native code with
/// the executors, replays the same stimulus and must produce the same
/// output trace bytes.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STIMULUS_H
#define PERFBENCH_STIMULUS_H

#include "Common.h"
#include "Workloads.h"

#include "driver/Driver.h"
#include "interp/VmExecutor.h"
#include "native/NativeExecutor.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Records \p Instants instants of a RandomEnvironment(\p Seed,
/// \p Permille) driving \p CS in frames of \p Frame instants, as
/// `signalc --record` does.
std::vector<uint8_t> recordStimulus(const sigc::CompiledStep &CS,
                                    const std::string &ProcName,
                                    uint64_t Seed, unsigned Permille,
                                    unsigned Instants,
                                    unsigned Frame = FrameInstants);

/// Outcome of one replay.
struct ReplayOut {
  bool Ok = false;          ///< Decoded cleanly and every instant ran.
  std::string Error;        ///< Why not, when !Ok.
  unsigned Instants = 0;
  std::vector<uint8_t> Bytes; ///< Outputs-only response trace.
  uint64_t Guards = 0;
  uint64_t Executed = 0;
};

/// Replays at most \p Limit instants (0 = all) of \p Stimulus through
/// the VM, one recorded frame per batch. \p Verify compares outputs
/// with the ones in the recording.
ReplayOut replayVm(sigc::VmExecutor &X, const std::vector<uint8_t> &Stimulus,
                   unsigned Limit = 0, bool Verify = false);
/// The same through a loaded native module.
ReplayOut replayNative(sigc::NativeExecutor &X,
                       const std::vector<uint8_t> &Stimulus);
/// The same through the reference interpreter, one instant at a time.
ReplayOut replayReference(sigc::Compilation &C,
                          const std::vector<uint8_t> &Stimulus,
                          unsigned Limit);

/// Fills the runtime-layer metrics of a traced run (interp and native
/// step self time, env exchange, trace decode and encode, trace bytes)
/// from the spans of the replays that executed \p VmInstants and
/// \p NativeInstants instants over \p IoBytes of trace.
void reportReplayLayers(Result &R, uint64_t VmInstants,
                        uint64_t NativeInstants, uint64_t IoBytes);

} // namespace perfbench

#endif // PERFBENCH_STIMULUS_H
