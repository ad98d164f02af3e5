//===--- LinkedExecutor.h - Linked-system execution -------------*- C++-*-===//
///
/// \file
/// Executes a LinkedSystem. Since the linker fuses every unit's bytecode
/// into one CompiledStep (see link/StepFusion.h), execution is simply a
/// VmExecutor over the fused program: channel wiring, cross-process
/// ordering and feedback interleaving were all resolved at link time
/// into plain slot copies, so the hot loop is exactly the single-process
/// hot loop — one guard-nested instruction stream, one environment
/// binding, batched windows and watch slots included.
///
/// The only linked-specific behavior left at run time is the *dynamic*
/// channel check: a channel whose consumer derives the clock itself
/// (ConsumerClockInput == -1) carries a DynCheck record, and after each
/// instant the consumer's derived presence must agree with the
/// producer's export presence, otherwise the run stops with a
/// diagnostic (a clock-interface violation the linker could not prove
/// either way). The VM records both clock slots per instant in its watch
/// buffer; after each window the checks replay from that recording, and
/// the first violation (ordered by instant, then by check order) cuts
/// the external flush after the erroring instant, whose outputs a
/// completed fused step has already emitted. The cut is implemented by
/// running windows against a buffering environment that delays output
/// forwarding until the checks have passed; systems without dynamic
/// channels skip the buffer entirely.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_INTERP_LINKEDEXECUTOR_H
#define SIGNALC_INTERP_LINKEDEXECUTOR_H

#include "interp/VmExecutor.h"
#include "link/Linker.h"

#include <string>
#include <vector>

namespace sigc {

/// Interprets a linked multi-process system through its fused step.
class LinkedExecutor {
public:
  explicit LinkedExecutor(const LinkedSystem &Sys);

  /// Re-initializes the fused delay states.
  void reset();

  /// Runs \p Count reactions starting at instant \p Start as one VM
  /// window. \returns false on a dynamic clock-constraint violation (see
  /// error()); the outer environment's trace then ends with the erroring
  /// instant, though the VM has already run the whole window (counters
  /// include post-error instants).
  bool stepN(Environment &Env, unsigned Start, unsigned Count);

  /// Runs \p Count reactions starting at instant 0 in windows of
  /// RunWindow instants.
  bool run(Environment &Env, unsigned Count) {
    return runBatched(Env, Count, RunWindow);
  }

  /// Runs \p Count reactions starting at instant 0 in windows of
  /// \p BatchSize instants (0 counts as 1).
  bool runBatched(Environment &Env, unsigned Count, unsigned BatchSize);

  /// Non-empty after stepN()/run() returned false.
  const std::string &error() const { return Error; }

  /// Guard tests of the fused executor.
  uint64_t guardTests() const { return Exec.guardTests(); }
  /// Instructions executed by the fused executor.
  uint64_t executed() const { return Exec.executed(); }

private:
  /// Pass-through environment that buffers outputs: windows run against
  /// it so a dynamic-check violation can cut the forwarded trace at the
  /// erroring instant even though the VM flushes whole windows.
  /// Resolution delegates to the outer environment, so every id this
  /// wrapper sees *is* an outer id.
  class BufferEnv : public Environment {
  public:
    Environment *Outer = nullptr;
    struct Rec {
      EnvOutputId Id;
      unsigned Instant;
      Value V;
    };
    std::vector<Rec> Buf;

    EnvClockId resolveClock(std::string_view Name) override {
      return Outer->resolveClock(Name);
    }
    EnvInputId resolveInput(std::string_view Name, TypeKind Type) override {
      return Outer->resolveInput(Name, Type);
    }
    EnvOutputId resolveOutput(std::string_view Name, TypeKind Type) override {
      return Outer->resolveOutput(Name, Type);
    }
    bool clockTick(EnvClockId Clock, unsigned Instant) override {
      return Outer->clockTick(Clock, Instant);
    }
    Value inputValue(EnvInputId Input, unsigned Instant) override {
      return Outer->inputValue(Input, Instant);
    }
    void clockTicks(EnvClockId Clock, unsigned Start, unsigned Count,
                    unsigned char *Out) override {
      Outer->clockTicks(Clock, Start, Count, Out);
    }
    void inputValues(EnvInputId Input, unsigned Start, unsigned Count,
                     Value *Out) override {
      Outer->inputValues(Input, Start, Count, Out);
    }
    // The default exchangeOutputs replays the window through
    // writeOutput instant by instant in emission order, so Buf holds
    // the forwarding sequence in instant order.
    void writeOutput(EnvOutputId Output, unsigned Instant,
                     const Value &V) override {
      Buf.push_back({Output, Instant, V});
    }
  };

  /// Appends the pinned mismatch diagnostic for \p Check at \p Instant.
  std::string mismatchMessage(const LinkedSystem::DynCheck &Check,
                              unsigned Instant, bool ProducerPresent,
                              bool ConsumerPresent) const;

  const LinkedSystem &Sys;
  /// Owned copy: VmExecutor holds its program by reference, and the
  /// executor must not dangle if the LinkedSystem is mutated or freed
  /// mid-lifetime the way per-unit Compilations could be.
  CompiledStep Fused;
  VmExecutor Exec;
  BufferEnv BatchEnv;
  std::string Error;
};

} // namespace sigc

#endif // SIGNALC_INTERP_LINKEDEXECUTOR_H
