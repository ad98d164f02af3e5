//===--- StepExecutor.h - Step-program execution ----------------*- C++-*-===//
///
/// \file
/// Executes a compiled StepProgram instant by instant against an
/// Environment, in either control structure:
///   * flat  — every instruction tests its own guard,
///   * nested — block guards are tested once; instructions inside run
///     unguarded (the clock-tree optimization of Section 3.4).
/// Both structures must produce identical outputs; the difference is the
/// number of guard tests, which the executor counts so benchmarks can
/// report the paper's claimed effect directly.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_INTERP_STEPEXECUTOR_H
#define SIGNALC_INTERP_STEPEXECUTOR_H

#include "codegen/StepProgram.h"
#include "interp/Environment.h"

#include <vector>

namespace sigc {

/// Control structure to execute.
enum class ExecMode { Flat, Nested };

/// Interprets a StepProgram.
class StepExecutor {
public:
  StepExecutor(const KernelProgram &Prog, const StepProgram &Step)
      : Prog(Prog), Step(Step) {
    reset();
  }

  /// Re-initializes the delay states.
  void reset();

  /// Resolves the environment binding now (otherwise done lazily on the
  /// first step with a new environment).
  void bind(Environment &Env);

  /// Runs one reaction. \p Instant tags environment queries and outputs.
  void step(Environment &Env, unsigned Instant, ExecMode Mode);

  /// Runs \p Count reactions starting at instant 0.
  void run(Environment &Env, unsigned Count, ExecMode Mode);

  /// Guard tests performed so far (the metric of the Figure-9 ablation).
  uint64_t guardTests() const { return GuardTests; }
  /// Instructions actually executed so far.
  uint64_t executed() const { return Executed; }
  void resetCounters() {
    GuardTests = 0;
    Executed = 0;
  }

  /// Post-step inspection (testing).
  bool clockPresent(int Slot) const { return ClockSlots[Slot]; }
  const Value &value(int Slot) const { return ValueSlots[Slot]; }

  /// The environment binding of the last bind() (linked wiring reads it).
  const StepBindings &bindings() const { return Bind; }

private:
  void execInstr(const StepInstr &In, Environment &Env, unsigned Instant);
  void runBlock(int BlockIdx, Environment &Env, unsigned Instant);

  const KernelProgram &Prog;
  const StepProgram &Step;
  uint64_t BoundIdentity = 0; ///< identity() of the bound environment.
  StepBindings Bind;
  std::vector<bool> ClockSlots;
  std::vector<Value> ValueSlots;
  std::vector<Value> StateSlots;
  uint64_t GuardTests = 0;
  uint64_t Executed = 0;
};

} // namespace sigc

#endif // SIGNALC_INTERP_STEPEXECUTOR_H
