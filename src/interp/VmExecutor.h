//===--- VmExecutor.h - CompiledStep execution ------------------*- C++-*-===//
///
/// \file
/// Executes a CompiledStep against an Environment, window by window.
///
/// Unless handed another executor's code, the constructor runs the
/// shared typing pass (StepKinds.h) and lowers CompiledStep::Code once
/// more, to typed threaded code over a frame of untyped 8-byte Slots:
/// value slots, scratch slots, two conversion slots, then the constants
/// as read-only slots. Every kind is resolved before the first instant:
///
///   * operators become opcodes specialised by operator and kind (AddI,
///     AddD, LtI, EqD, ...; booleans and events compare as 0/1 with
///     EqI), so an instruction body is one C++ statement on one Slot
///     member, with no tag test and no out-of-line call,
///   * constant operands are slots, so binary operations have a single
///     slot-slot form and a constant load is a copy,
///   * where an integer becomes real (mixed arithmetic, a real signal
///     written an integer, a real default or delay memory), the typed
///     code widens explicitly: a ToD into a conversion slot or in place,
///     or a real constant slot when the operand is constant,
///   * the stream ends in a Halt sentinel, so dispatch never tests the PC
///     against the end.
///
/// Every instant runs inside a window (BatchIO): the window's ticks and
/// inputs are prefetched into typed columns with one environment
/// crossing per descriptor, the instants walk those columns, and the
/// output slots flush once at window end in exactly the order the
/// instants wrote them. step() is a window of one instant, run() steps
/// windows of RunWindow instants, and stepN() takes the window the
/// caller picks; traces and counters do not depend on the window size.
/// In the steady state an instant performs zero heap allocations (pinned
/// by vm_alloc_test).
///
/// An instant is a flat PC walk: absent clocks skip their subtree via
/// the skip offsets of CompiledStep. The loop is direct-threaded (one
/// computed `goto *` per instruction) wherever the compiler supports
/// labels-as-values, and a portable switch loop otherwise or under
/// -DSIGC_VM_NO_COMPUTED_GOTO. Executed is counted per block, not per
/// instruction: each Skip carries the summed weight of its block's
/// direct instructions (a block is straight-line between guards, so all
/// of them run when the guard holds) and the unguarded instructions'
/// weight is added once per instant. Both counters live in locals inside
/// the loop and are stored once per instant.
///
/// stepLane() is the same window over a caller-owned delay-state block
/// (the same Slot array the native tier's `sigc_native_set_state` reads)
/// and binding: one executor steps any number of instances in turn,
/// which is all a fleet is (see FleetExecutor).
///
/// Guard/instruction counters are exact for either CompiledStep layout:
/// one guard test per executed SkipIfAbsent, one Executed per step
/// instruction. Running the nested and the flat build over one stimulus
/// therefore compares the two Figure-9 control structures number for
/// number.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_INTERP_VMEXECUTOR_H
#define SIGNALC_INTERP_VMEXECUTOR_H

#include "interp/BatchIO.h"
#include "interp/CompiledStep.h"
#include "interp/Environment.h"
#include "interp/StepKinds.h"

#include <memory>
#include <vector>

namespace sigc {

/// Interprets a CompiledStep.
class VmExecutor {
public:
  /// One typed instruction. Skip: A clock, T target, B block weight;
  /// Write: A value, B flush position, C descriptor; Select: C clock;
  /// otherwise T destination, A/B operands (descriptors for reads).
  struct TInstr {
    uint8_t Op = 0;
    int32_t T = -1;
    int32_t A = -1;
    int32_t B = -1;
    int32_t C = -1;
  };

  /// The typed code of one CompiledStep. It depends on nothing else, so
  /// the executors of one step (a fleet's shards) share one lowering.
  struct TypedCode {
    std::vector<TInstr> Code; ///< Halt-terminated.
    std::vector<Slot> Consts; ///< Constant slots, copied after scratch.
    uint64_t RootWeight = 0;  ///< Executed per instant outside any guard.
  };

  /// Runs \p CS on \p Code, which must be another executor's typedCode()
  /// of the same step; lowers \p CS afresh when it is null.
  explicit VmExecutor(const CompiledStep &CS,
                      std::shared_ptr<const TypedCode> Code = nullptr);
  const std::shared_ptr<const TypedCode> &typedCode() const { return Typed; }

  /// Re-initializes the delay states.
  void reset();

  /// Resolves the environment binding now (otherwise done lazily on the
  /// first window with a new environment).
  void bind(Environment &Env);

  /// Runs one reaction: a window of one instant. \p Instant tags
  /// environment queries and outputs.
  void step(Environment &Env, unsigned Instant) { stepN(Env, Instant, 1); }

  /// Runs \p Count reactions starting at instant \p Start as one window,
  /// crossing the environment boundary once per descriptor (bulk tick and
  /// input prefetch, one output flush). Trace and counters do not depend
  /// on how a run is cut into windows. Allocation-free once the window
  /// buffers exist (see reserveBatch).
  void stepN(Environment &Env, unsigned Start, unsigned Count);

  /// stepN over a caller-owned lane: \p State is the lane's delay-state
  /// block (CS.StateInit.size() slots, updated in place) and \p B its
  /// binding to \p Env. Counters accumulate here, as for stepN.
  void stepLane(Environment &Env, const BoundEnv &B, Slot *State,
                unsigned Start, unsigned Count);

  /// Runs \p Count reactions starting at instant 0 in windows of
  /// RunWindow instants.
  void run(Environment &Env, unsigned Count) {
    runBatched(Env, Count, RunWindow);
  }

  /// Runs \p Count reactions starting at instant 0 in windows of
  /// \p BatchSize instants (0 counts as 1).
  void runBatched(Environment &Env, unsigned Count, unsigned BatchSize);

  /// Preallocates the batch buffers for batches of up to \p MaxCount
  /// instants; stepN grows them on demand otherwise (a one-time
  /// allocation, after which stepN is allocation-free).
  void reserveBatch(unsigned MaxCount);

  /// Clock slots whose presence stepN records per instant (the linked
  /// executor's dynamic channel checks read them back).
  void setWatchSlots(std::vector<int> Slots);
  /// Presence of watch slot \p Watch at batch-relative instant \p I of
  /// the last stepN.
  bool watchPresence(size_t Watch, unsigned I) const {
    return WatchBuf[Watch * IO.capacity() + I] != 0;
  }

  /// Guard tests performed so far: one per SkipIfAbsent reached (a block
  /// entry in the nested layout, a guarded instruction in the flat one).
  uint64_t guardTests() const { return GuardTests; }
  /// Instructions actually executed so far (skip tests excluded).
  uint64_t executed() const { return Executed; }
  void resetCounters() {
    GuardTests = 0;
    Executed = 0;
  }

  //===--- State exchange (tier hot-swap, tests) --------------------------===//

  /// The delay-state slots as they stand now. Taken at a batch boundary
  /// this is the complete execution state beyond the stimulus itself —
  /// what the native tier imports on a VM->native hot swap.
  const std::vector<Slot> &stateSlots() const { return StateSlots; }

  /// Restores delay state captured by stateSlots() (a native->VM swap or
  /// a checkpoint restore). Sizes must match the compiled step.
  void setStateSlots(const std::vector<Slot> &S);

  /// Seeds the guard/executed counters (a swap carries them across tiers
  /// so a swapped run's totals equal an uninterrupted run's).
  void setCounters(uint64_t Guards, uint64_t Instrs) {
    GuardTests = Guards;
    Executed = Instrs;
  }

private:
  /// One instant's PC walk over the window columns: \p Ticks and \p Ins
  /// point at this instant's entry of each descriptor's column (stride
  /// \p Cap), \p OutPresent and \p Outs at its output row. \p State is
  /// the delay-state block the instant reads and updates.
  void execInstant(const unsigned char *Ticks, const Slot *Ins, size_t Cap,
                   unsigned char *OutPresent, Slot *Outs, Slot *State);

  const CompiledStep &CS;
  BoundEnv Bind; ///< The environment of stepN().
  std::shared_ptr<const TypedCode> Typed;
  std::vector<Slot> StateInit;
  std::vector<char> ClockSlots;
  std::vector<Slot> Frame;   ///< Values, scratch, conversions, constants.
  std::vector<Slot> StateSlots;
  uint64_t GuardTests = 0;
  uint64_t Executed = 0;

  //===--- Window state ---------------------------------------------------===//
  BatchIO IO;
  std::vector<int> WatchSlots;
  std::vector<unsigned char> WatchBuf; ///< [watch][instant].
};

} // namespace sigc

#endif // SIGNALC_INTERP_VMEXECUTOR_H
