//===--- CondDepGraph.h - Conditional dependency graph ----------*- C++-*-===//
///
/// \file
/// The conditional dependency graph of the paper's Section 2.5 (Table 2)
/// and its scheduling into a sequential step. Graph nodes are *actions*
/// (compute a clock's presence, read an input, evaluate a signal, update a
/// delay, emit an output); edges mean "must happen earlier in the step".
///
/// The Table-2 rows appear as:
///   Xi --x̂→ X          Func operand edges (value before value),
///   U --x̂→ X            when/default value edges,
///   C --ĉ→ [C], [¬C]    a literal clock needs the condition's value,
///   x̂ --x̂→ X            every signal needs its own clock's presence,
///   (ZX := X$1)          no value edge; instead a StoreDelay action at the
///                        end of the instant ordered after X and after the
///                        LoadDelay that reads the old state.
///
/// The schedule is a list schedule that follows the clock tree: among the
/// ready actions it prefers one guarded by the clock that guards the
/// action just scheduled, then one guarded inside that clock's subtree;
/// failing both, it climbs to the nearest ancestor clock with ready work
/// below it and descends from there (first child in forest order). Ties
/// go to the smallest action index. Same-clock work thus sits together,
/// and the nested step opens each guard block once rather than once per
/// action (Figure 9, code a). This is the "merge adjacent same-clock
/// control" step of clock-directed code generation (Biernacki, Colaço,
/// Hamon, Pouzet, LCTES 2008).
///
/// A dependency cycle makes the program causally incorrect and is
/// rejected. (The paper refines this with the clock labels — a cycle whose
/// label product is the null clock is harmless; this implementation keeps
/// the simpler conservative check and documents the difference.)
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_GRAPH_CONDDEPGRAPH_H
#define SIGNALC_GRAPH_CONDDEPGRAPH_H

#include "forest/ClockForest.h"
#include "sema/Kernel.h"
#include "support/Diagnostics.h"

#include <string>
#include <vector>

namespace sigc {

/// What one scheduled step action does.
enum class ActionKind {
  ClockInput,  ///< Read a free root clock's tick from the environment.
  ClockEval,   ///< Compute a derived/literal clock's presence.
  SignalInput, ///< Read an input signal's value (guarded by its clock).
  SignalEval,  ///< Evaluate a Func/When/Default equation.
  LoadDelay,   ///< Read the delay state into the target signal.
  StoreDelay,  ///< Write the delay source into the state (end of instant).
  WriteOutput, ///< Hand an output to the environment.
};

const char *actionKindName(ActionKind K);

/// One node of the dependency graph.
struct Action {
  ActionKind Kind = ActionKind::ClockEval;
  ForestNodeId Clock = InvalidForestNode; ///< Clock computed / guard clock.
  SignalId Sig = InvalidSignal;           ///< Signal read/evaluated/output.
  int EqIndex = -1;                       ///< Kernel equation, if any.
};

/// The forest node whose block guards \p A in the nested step, or
/// InvalidForestNode when \p A runs unguarded: clock inputs and
/// derived/residual presence computations are unguarded, a literal clock
/// is guarded by its condition's clock, and every other action by its
/// own clock. The scheduler clusters actions by this node and the step
/// compiler nests them under it.
ForestNodeId guardNode(const Action &A, ClockForest &Forest,
                       const ClockSystem &Sys);

/// The built graph plus its schedule.
class CondDepGraph {
public:
  /// Builds the graph for \p Prog whose clocks were resolved into
  /// \p Forest, then list-schedules it along the clock tree.
  /// \returns false on a causality cycle (diagnosed).
  bool build(const KernelProgram &Prog, const ClockSystem &Sys,
             ClockForest &Forest, const StringInterner &Names,
             DiagnosticEngine &Diags);

  const std::vector<Action> &actions() const { return Actions; }
  /// Indices into actions() in a valid execution order.
  const std::vector<int> &schedule() const { return Schedule; }
  const std::vector<std::vector<int>> &successors() const { return Succs; }

  unsigned numEdges() const;

  /// Renders the scheduled actions (tests, -dump-graph).
  std::string dump(const KernelProgram &Prog, const StringInterner &Names,
                   ClockForest &Forest, const ClockSystem &Sys) const;

private:
  int addAction(const Action &A);
  void addEdge(int From, int To);

  std::vector<Action> Actions;
  std::vector<std::vector<int>> Succs;
  std::vector<int> Schedule;
};

} // namespace sigc

#endif // SIGNALC_GRAPH_CONDDEPGRAPH_H
