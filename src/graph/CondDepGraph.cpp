//===--- CondDepGraph.cpp -------------------------------------------------===//

#include "graph/CondDepGraph.h"

#include <algorithm>
#include <cassert>
#include <queue>
#include <unordered_map>

using namespace sigc;

const char *sigc::actionKindName(ActionKind K) {
  switch (K) {
  case ActionKind::ClockInput:
    return "clock-input";
  case ActionKind::ClockEval:
    return "clock-eval";
  case ActionKind::SignalInput:
    return "signal-input";
  case ActionKind::SignalEval:
    return "signal-eval";
  case ActionKind::LoadDelay:
    return "load-delay";
  case ActionKind::StoreDelay:
    return "store-delay";
  case ActionKind::WriteOutput:
    return "write-output";
  }
  return "<bad>";
}

ForestNodeId sigc::guardNode(const Action &A, ClockForest &Forest,
                             const ClockSystem &Sys) {
  switch (A.Kind) {
  case ActionKind::ClockInput:
    return InvalidForestNode;
  case ActionKind::ClockEval: {
    const ClockNode &Node = Forest.node(A.Clock);
    if (Node.Def != ClockDefKind::Literal)
      return InvalidForestNode;
    return Forest.nodeOf(Sys.signalClock(Node.CondSignal));
  }
  default:
    return A.Clock;
  }
}

namespace {

/// The ready set of the list scheduler. Ready actions sit in one
/// min-index bucket per forest node (their guard node); a virtual root
/// above every tree holds the unguarded ones. Each node also counts the
/// ready actions in its subtree, so a pick never scans the ready set:
/// from the last pick's guard node it climbs to the nearest node whose
/// subtree has ready work, then takes that node's own smallest action,
/// or descends into its first child (forest order) with ready work.
/// Staying in the open block, then its descendants, then its siblings
/// is what lets consecutive actions share one block guard (Figure 9,
/// code a).
class ClockListScheduler {
public:
  explicit ClockListScheduler(const ClockForest &Forest)
      : Forest(Forest), VirtualRoot(static_cast<int>(Forest.numNodes())),
        Roots(Forest.roots()), Buckets(Forest.numNodes() + 1),
        SubtreeReady(Forest.numNodes() + 1, 0), Cursor(VirtualRoot) {}

  bool empty() const { return SubtreeReady[VirtualRoot] == 0; }

  /// Makes \p Action ready; \p Guard is its guardNode().
  void push(int Action, ForestNodeId Guard) {
    int Node = Guard == InvalidForestNode ? VirtualRoot : Guard;
    Buckets[Node].push(Action);
    for (int N = Node; N >= 0; N = parent(N))
      ++SubtreeReady[N];
  }

  int pop() {
    assert(!empty());
    int N = Cursor;
    while (SubtreeReady[N] == 0)
      N = parent(N);
    while (Buckets[N].empty())
      N = firstReadyChild(N);
    int Action = Buckets[N].top();
    Buckets[N].pop();
    for (int M = N; M >= 0; M = parent(M))
      --SubtreeReady[M];
    Cursor = N;
    return Action;
  }

private:
  int parent(int N) const {
    if (N == VirtualRoot)
      return -1;
    ForestNodeId P = Forest.node(N).Parent;
    return P == InvalidForestNode ? VirtualRoot : P;
  }

  int firstReadyChild(int N) const {
    const std::vector<ForestNodeId> &Children =
        N == VirtualRoot ? Roots : Forest.node(N).Children;
    for (ForestNodeId C : Children)
      if (SubtreeReady[C] != 0)
        return C;
    assert(false && "subtree count without a ready child");
    return VirtualRoot;
  }

  const ClockForest &Forest;
  const int VirtualRoot;
  const std::vector<ForestNodeId> Roots;
  std::vector<std::priority_queue<int, std::vector<int>, std::greater<int>>>
      Buckets;
  std::vector<unsigned> SubtreeReady;
  int Cursor;
};

} // namespace

int CondDepGraph::addAction(const Action &A) {
  Actions.push_back(A);
  Succs.emplace_back();
  return static_cast<int>(Actions.size()) - 1;
}

void CondDepGraph::addEdge(int From, int To) {
  assert(From >= 0 && To >= 0);
  // A self-edge (Y := Y + A) is a legal *input* to the graph: it is an
  // instantaneous cycle the topological sort rejects with a proper
  // diagnostic, exactly like any longer cycle.
  Succs[From].push_back(To);
}

unsigned CondDepGraph::numEdges() const {
  unsigned N = 0;
  for (const auto &S : Succs)
    N += static_cast<unsigned>(S.size());
  return N;
}

bool CondDepGraph::build(const KernelProgram &Prog, const ClockSystem &Sys,
                         ClockForest &Forest, const StringInterner &Names,
                         DiagnosticEngine &Diags) {
  Actions.clear();
  Succs.clear();
  Schedule.clear();

  // --- Create actions ---------------------------------------------------

  // One clock action per alive forest node.
  std::unordered_map<ForestNodeId, int> ClockAction;
  for (ForestNodeId N : Forest.dfsOrder()) {
    const ClockNode &Node = Forest.node(N);
    Action A;
    A.Kind = (Node.Def == ClockDefKind::Root) ? ActionKind::ClockInput
                                              : ActionKind::ClockEval;
    A.Clock = N;
    ClockAction[N] = addAction(A);
  }

  // One value-producing action per signal with a non-empty clock.
  std::vector<int> ValueAction(Prog.numSignals(), -1);
  std::vector<int> StoreAction(Prog.numSignals(), -1);
  for (SignalId S = 0; S < Prog.numSignals(); ++S) {
    ForestNodeId ClockNodeId = Forest.nodeOf(Sys.signalClock(S));
    if (ClockNodeId == InvalidForestNode)
      continue; // Null clock: the signal never occurs.
    const KernelEq *Def = Prog.definition(S);
    Action A;
    A.Sig = S;
    A.Clock = ClockNodeId;
    if (!Def) {
      // Inputs and free locals are read from the environment.
      A.Kind = ActionKind::SignalInput;
    } else if (Def->Kind == KernelEqKind::Delay) {
      A.Kind = ActionKind::LoadDelay;
      A.EqIndex = Prog.DefiningEq[S];
    } else {
      A.Kind = ActionKind::SignalEval;
      A.EqIndex = Prog.DefiningEq[S];
    }
    ValueAction[S] = addAction(A);
  }

  // StoreDelay actions (the end-of-instant state writes).
  for (unsigned EqI = 0; EqI < Prog.Equations.size(); ++EqI) {
    const KernelEq &Eq = Prog.Equations[EqI];
    if (Eq.Kind != KernelEqKind::Delay)
      continue;
    if (ValueAction[Eq.Target] < 0)
      continue; // Clock proved empty.
    Action A;
    A.Kind = ActionKind::StoreDelay;
    A.Sig = Eq.Target;
    A.EqIndex = static_cast<int>(EqI);
    A.Clock = Actions[ValueAction[Eq.Target]].Clock;
    StoreAction[Eq.Target] = addAction(A);
  }

  // Output actions.
  for (SignalId S : Prog.outputs()) {
    if (ValueAction[S] < 0)
      continue;
    Action A;
    A.Kind = ActionKind::WriteOutput;
    A.Sig = S;
    A.Clock = Actions[ValueAction[S]].Clock;
    addAction(A);
    addEdge(ValueAction[S], static_cast<int>(Actions.size()) - 1);
  }

  // --- Edges -------------------------------------------------------------

  // Clock recipes.
  for (const auto &[NodeId, ActIdx] : ClockAction) {
    const ClockNode &Node = Forest.node(NodeId);
    switch (Node.Def) {
    case ClockDefKind::Root:
      break;
    case ClockDefKind::Literal: {
      // Needs the condition's clock presence and the condition's value
      // (Table 2: C --ĉ→ [C]). Note: the *condition's clock*, not the
      // tree parent — reparenting may have placed a derived union between
      // them, and unions evaluate after their operands.
      ForestNodeId CondClock =
          Forest.nodeOf(Sys.signalClock(Node.CondSignal));
      if (CondClock != InvalidForestNode)
        addEdge(ClockAction.at(CondClock), ActIdx);
      if (ValueAction[Node.CondSignal] >= 0)
        addEdge(ValueAction[Node.CondSignal], ActIdx);
      break;
    }
    case ClockDefKind::Derived:
    case ClockDefKind::Residual: {
      for (ClockVarId Op : {Node.OpA, Node.OpB}) {
        ForestNodeId ON = Forest.nodeOf(Op);
        if (ON != InvalidForestNode)
          addEdge(ClockAction.at(ON), ActIdx);
      }
      break;
    }
    }
  }

  // Signal actions: own-clock edge (x̂ --x̂→ X) plus value operands.
  for (SignalId S = 0; S < Prog.numSignals(); ++S) {
    int Act = ValueAction[S];
    if (Act < 0)
      continue;
    addEdge(ClockAction.at(Actions[Act].Clock), Act);
    const KernelEq *Def = Prog.definition(S);
    if (!Def || Def->Kind == KernelEqKind::Delay)
      continue;
    switch (Def->Kind) {
    case KernelEqKind::Func:
      for (SignalId Arg : Def->Args)
        if (ValueAction[Arg] >= 0)
          addEdge(ValueAction[Arg], Act);
      break;
    case KernelEqKind::When:
      if (Def->WhenValue.isSignal() && ValueAction[Def->WhenValue.Sig] >= 0)
        addEdge(ValueAction[Def->WhenValue.Sig], Act);
      break;
    case KernelEqKind::Default:
      for (SignalId Src : {Def->DefaultPreferred, Def->DefaultAlternative}) {
        if (ValueAction[Src] >= 0)
          addEdge(ValueAction[Src], Act);
        // The merge also tests the preferred operand's presence.
        ForestNodeId SrcClock = Forest.nodeOf(Sys.signalClock(Src));
        if (SrcClock != InvalidForestNode)
          addEdge(ClockAction.at(SrcClock), Act);
      }
      break;
    case KernelEqKind::Delay:
      break;
    }
  }

  // Delay stores: after the new source value and after the old state was
  // read by LoadDelay.
  for (SignalId S = 0; S < Prog.numSignals(); ++S) {
    int Store = StoreAction[S];
    if (Store < 0)
      continue;
    const KernelEq &Eq = Prog.Equations[Actions[Store].EqIndex];
    if (ValueAction[Eq.DelaySource] >= 0)
      addEdge(ValueAction[Eq.DelaySource], Store);
    addEdge(ValueAction[S], Store);
    addEdge(ClockAction.at(Actions[Store].Clock), Store);
  }

  // --- Schedule (Kahn, ready actions picked along the clock tree) --------
  std::vector<unsigned> InDegree(Actions.size(), 0);
  for (const auto &S : Succs)
    for (int T : S)
      ++InDegree[T];

  ClockListScheduler Ready(Forest);
  std::vector<ForestNodeId> GuardOf(Actions.size());
  for (unsigned I = 0; I < Actions.size(); ++I) {
    GuardOf[I] = guardNode(Actions[I], Forest, Sys);
    if (InDegree[I] == 0)
      Ready.push(static_cast<int>(I), GuardOf[I]);
  }

  while (!Ready.empty()) {
    int A = Ready.pop();
    Schedule.push_back(A);
    for (int T : Succs[A])
      if (--InDegree[T] == 0)
        Ready.push(T, GuardOf[T]);
  }

  if (Schedule.size() != Actions.size()) {
    // Identify one action on a cycle for the message.
    std::string Who = "<unknown>";
    for (unsigned I = 0; I < Actions.size(); ++I) {
      if (InDegree[I] != 0) {
        const Action &A = Actions[I];
        if (A.Sig != InvalidSignal)
          Who = std::string(Names.spelling(Prog.Signals[A.Sig].Name));
        else
          Who = std::string("clock #") + std::to_string(A.Clock);
        break;
      }
    }
    Diags.error(SourceLoc(), "causally incorrect program: instantaneous "
                             "dependency cycle involving '" +
                                 Who + "'");
    return false;
  }
  return true;
}

std::string CondDepGraph::dump(const KernelProgram &Prog,
                               const StringInterner &Names,
                               ClockForest &Forest,
                               const ClockSystem &Sys) const {
  (void)Forest;
  (void)Sys;
  std::string Out;
  for (int I : Schedule) {
    const Action &A = Actions[I];
    Out += "  ";
    Out += actionKindName(A.Kind);
    if (A.Sig != InvalidSignal)
      Out += std::string(" ") +
             std::string(Names.spelling(Prog.Signals[A.Sig].Name));
    if (A.Clock != InvalidForestNode)
      Out += " @clock#" + std::to_string(A.Clock);
    Out += "\n";
  }
  return Out;
}
