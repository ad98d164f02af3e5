//===--- VmExecutor.h - CompiledStep execution ------------------*- C++-*-===//
///
/// \file
/// Executes a CompiledStep instant by instant against an Environment.
/// The per-instant loop is a flat PC walk over the VM instruction stream:
/// absent clocks skip their subtree via SkipIfAbsent offsets, expressions
/// run three-address over preallocated scratch slots, and every
/// environment query uses the slot ids bound once per (executor,
/// environment) pair. In the steady state one instant performs zero heap
/// allocations (pinned by the counting-allocator test).
///
/// stepN() runs a whole batch of instants with one environment crossing
/// per descriptor: free-clock ticks and input values are fetched up
/// front through the bulk exchange API, outputs are buffered and flushed
/// once at batch end in exactly the order an unbatched run would record
/// them. Slots stay hot across the batch; traces and counters are
/// bit-identical to N calls of step().
///
/// stepLane() is the same batch over a caller-owned delay-state block
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

#include "interp/CompiledStep.h"
#include "interp/Environment.h"

#include <vector>

namespace sigc {

/// An environment bound to a CompiledStep: descriptor ids, the batch
/// flush table (flush position -> output id) and the identity() it was
/// resolved against. Executors cache one; a fleet keeps one per lane.
struct BoundEnv {
  StepBindings Ids;
  std::vector<EnvOutputId> FlushIds;
  uint64_t Identity = 0;
};

/// Resolves \p Env against \p CS (cold path: interns names, allocates).
BoundEnv bindEnv(Environment &Env, const CompiledStep &CS);

/// Instruction-dispatch strategy of the interpreter loop. Direct-threaded
/// dispatch (GNU labels-as-values: one indirect `goto *` per instruction,
/// so the branch predictor keys each opcode's successor separately)
/// is the default wherever the compiler supports it; the portable switch
/// loop remains both as the fallback and as a benchmarking baseline.
enum class VmDispatch : uint8_t {
  Switch, ///< Portable `switch` dispatch.
  Goto,   ///< Direct-threaded computed-goto dispatch.
};

/// Interprets a CompiledStep.
class VmExecutor {
public:
  explicit VmExecutor(const CompiledStep &CS);

  /// True when this build carries the computed-goto dispatcher
  /// (GCC/Clang; disable with -DSIGC_VM_NO_COMPUTED_GOTO).
  static bool computedGotoAvailable();

  /// Selects the dispatch strategy. Requests for an unavailable
  /// dispatcher fall back to the portable switch. Trace and counters are
  /// dispatch-independent — only the loop's branch structure changes.
  void setDispatch(VmDispatch D);
  VmDispatch dispatch() const {
    return UseGoto ? VmDispatch::Goto : VmDispatch::Switch;
  }

  /// Re-initializes the delay states.
  void reset();

  /// Resolves the environment binding now (otherwise done lazily on the
  /// first step with a new environment).
  void bind(Environment &Env);

  /// Runs one reaction. \p Instant tags environment queries and outputs.
  void step(Environment &Env, unsigned Instant);

  /// Runs \p Count reactions starting at instant \p Start, crossing the
  /// environment boundary once per descriptor per batch (bulk tick and
  /// input prefetch, one output flush). Trace and counters equal \p Count
  /// calls of step(). Allocation-free once the batch buffers exist (see
  /// reserveBatch).
  void stepN(Environment &Env, unsigned Start, unsigned Count);

  /// stepN over a caller-owned lane: \p State is the lane's delay-state
  /// block (CS.StateInit.size() slots, updated in place) and \p B its
  /// binding to \p Env. Counters accumulate here, as for stepN.
  void stepLane(Environment &Env, const BoundEnv &B, Value *State,
                unsigned Start, unsigned Count);

  /// Runs \p Count reactions starting at instant 0.
  void run(Environment &Env, unsigned Count);

  /// Runs \p Count reactions starting at instant 0, stepN-batched in
  /// windows of \p BatchSize.
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
    return WatchBuf[Watch * BatchCap + I] != 0;
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

  /// Post-step inspection (testing, linked dynamic checks).
  bool clockPresent(int Slot) const { return ClockSlots[Slot] != 0; }
  const Value &value(int Slot) const { return ValueSlots[Slot]; }

  //===--- State exchange (tier hot-swap, tests) --------------------------===//

  /// The delay-state slots as they stand now. Taken at a batch boundary
  /// this is the complete execution state beyond the stimulus itself —
  /// what the native tier imports on a VM->native hot swap.
  const std::vector<Value> &stateSlots() const { return StateSlots; }

  /// Restores delay state captured by stateSlots() (a native->VM swap or
  /// a checkpoint restore). Sizes must match the compiled step.
  void setStateSlots(const std::vector<Value> &S);

  /// Seeds the guard/executed counters (a swap carries them across tiers
  /// so a swapped run's totals equal an uninterrupted run's).
  void setCounters(uint64_t Guards, uint64_t Instrs) {
    GuardTests = Guards;
    Executed = Instrs;
  }

private:
  /// One instant's PC walk; \p Port supplies ticks/inputs and receives
  /// outputs (direct environment queries or batch buffers); \p State is
  /// the delay-state block the instant reads and updates.
  template <typename Port>
  void execInstant(Port &P, Value *State, unsigned Instant);
  /// The two dispatch loops over the same op bodies.
  template <typename Port>
  void execInstantSwitch(Port &P, Value *State, unsigned Instant);
  template <typename Port>
  void execInstantGoto(Port &P, Value *State, unsigned Instant);

  const CompiledStep &CS;
  bool UseGoto = computedGotoAvailable();
  BoundEnv Bind; ///< The environment of step()/stepN().
  std::vector<char> ClockSlots;
  std::vector<Value> ValueSlots; ///< Values, then scratch slots.
  std::vector<Value> StateSlots;
  uint64_t GuardTests = 0;
  uint64_t Executed = 0;

  //===--- Batch state ----------------------------------------------------===//
  unsigned BatchCap = 0;               ///< Capacity of all batch buffers.
  std::vector<unsigned char> TickBuf;  ///< [clock desc][instant].
  std::vector<Value> InBuf;            ///< [input desc][instant].
  std::vector<unsigned char> OutPresent; ///< [instant][flush position].
  std::vector<Value> OutVals;            ///< [instant][flush position].
  std::vector<int32_t> FlushPos;       ///< Output desc -> flush position.
  std::vector<int> WatchSlots;
  std::vector<unsigned char> WatchBuf; ///< [watch][instant].
};

} // namespace sigc

#endif // SIGNALC_INTERP_VMEXECUTOR_H
