//===--- ClockForest.h - Arborescent canonical form of clocks ---*- C++-*-===//
///
/// \file
/// The paper's central data structure (Section 3.4): a forest of clock
/// trees in which
///
///   * every node stands for one equivalence class of clock variables
///     (equalities are solved first with union-find),
///   * an edge parent -> child means child ⊆ parent,
///   * each boolean condition C partitions its clock ĉ into the children
///     [C] and [¬C],
///   * every node carries a BDD over condition variables, *relative to the
///     root of its tree* (the root's BDD is the constant true),
///   * a defined clock k = k1 <op> k2 whose operands lie in one tree is
///     inserted under its deepest containing parent (the "canonical
///     factorization" of [1]); equal BDDs merge classes, which is what
///     makes the representation canonical,
///   * every inclusion test the resolution asks (is F ⊆ G?) goes through
///     includes(), which first compares the two nodes' *literal hulls*:
///     the condition literals each BDD forces (its essential literals,
///     2 bits per condition variable) plus an "is a cube" flag. A literal
///     G forces but F does not refutes F ⊆ G; a cube G whose literals F
///     all forces proves it. Only the remaining tests walk the BDDs with
///     BddManager::implies. Hulls are computed lazily, once per BDD value,
///     in time linear in the BDD's size,
///   * trees are fused when a definition relates their roots.
///
/// Resolution runs the paper's three-step loop (Section 3.4 "Arborescent
/// resolution"): rewrite a root so its operands share a tree, fuse, repeat
/// until nothing changes. Equations whose left-hand side is already placed
/// are *verified* by BDD equality (the inclusion-based rewriting of the
/// PROCESS_ALARM example falls out of this: ĉ = [D] ∨ [C1] ∨ ĉ evaluates
/// to the root's BDD and is discharged). Unresolvable-but-orientable
/// equations remain as residual cross-tree definitions; unprovable or
/// cyclic ones make the program temporally incorrect.
///
/// Deviation from the paper, documented: where [1] proves the deepest
/// parent unique under their factorization scheme, we search all containing
/// branches and break ties deterministically (greater depth, then smaller
/// node id). The paper's syntactic p-depth rewriting limit is unnecessary
/// here because rewriting is semantic (on BDDs), which terminates.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_FOREST_CLOCKFOREST_H
#define SIGNALC_FOREST_CLOCKFOREST_H

#include "bdd/Bdd.h"
#include "clock/ClockSystem.h"
#include "clock/UnionFind.h"
#include "support/Diagnostics.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace sigc {

/// Index of a node in the forest; -1 is "no node".
using ForestNodeId = int;
constexpr ForestNodeId InvalidForestNode = -1;

/// How the presence of a clock node is computed at run time.
enum class ClockDefKind {
  Root,     ///< Free: the environment decides (an input clock).
  Literal,  ///< Parent present and condition value matches.
  Derived,  ///< k1 <op> k2 over previously computed clocks.
  Residual, ///< Like Derived, but cross-tree (kept as an explicit formula);
            ///< the node is the root of its own tree.
};

/// One node of the clock forest.
struct ClockNode {
  ClockVarId Rep = InvalidClockVar; ///< Canonical class representative.
  ForestNodeId Parent = InvalidForestNode;
  std::vector<ForestNodeId> Children;
  BddRef Bdd; ///< Relative to the tree root.
  bool Alive = true;

  ClockDefKind Def = ClockDefKind::Root;
  // Literal:
  SignalId CondSignal = InvalidSignal;
  bool Positive = true;
  // Derived / Residual:
  ClockOp Op = ClockOp::Inter;
  ClockVarId OpA = InvalidClockVar;
  ClockVarId OpB = InvalidClockVar;
};

/// Statistics of one resolution run (reported by the benchmarks).
struct ForestBuildStats {
  unsigned Insertions = 0;       ///< Nodes placed under a deeper parent.
  unsigned Fusions = 0;          ///< Tree-into-tree fusions.
  unsigned MergedClasses = 0;    ///< Classes unified by BDD equality.
  unsigned VerifiedEquations = 0;///< Equations discharged by rewriting.
  unsigned ResidualDefinitions = 0;
  unsigned NullClocks = 0;       ///< Classes proved empty.
  unsigned Iterations = 0;       ///< Fixpoint rounds.
  uint64_t BddNodes = 0;         ///< Manager size after the run.
  unsigned InclusionTests = 0;   ///< ClockForest::includes() calls.
  unsigned InclusionBddFallbacks = 0; ///< ...the literal hulls left open,
                                      ///< answered by BddManager::implies.
};

/// The forest of clock trees of one program.
class ClockForest {
public:
  explicit ClockForest(BddManager &Mgr) : Mgr(Mgr) {}

  /// Runs the arborescent resolution on \p Sys.
  /// \returns false (with diagnostics) if the program is temporally
  /// incorrect or the BDD budget tripped.
  bool build(const ClockSystem &Sys, const KernelProgram &Prog,
             const StringInterner &Names, DiagnosticEngine &Diags);

  // --- Queries (valid after a successful build) -------------------------

  /// Canonical representative of \p V's equivalence class.
  ClockVarId rep(ClockVarId V) { return Classes.find(V); }

  /// \returns the forest node of \p V's class, or InvalidForestNode when
  /// the class is the null clock.
  ForestNodeId nodeOf(ClockVarId V);

  /// \returns true if \p V's class is the empty clock 0̂.
  bool isNull(ClockVarId V);

  const ClockNode &node(ForestNodeId N) const { return Nodes[N]; }
  unsigned numNodes() const { return static_cast<unsigned>(Nodes.size()); }

  /// Roots of all alive trees, in deterministic order.
  std::vector<ForestNodeId> roots() const;

  /// Left-to-right depth-first order over all trees; parents precede
  /// children (the order that embodies triangularity).
  std::vector<ForestNodeId> dfsOrder() const;

  /// Clock classes the environment must provide (roots with no residual
  /// definition) — the "free variables exhibited by the compilation".
  std::vector<ForestNodeId> freeClocks() const;

  /// Depth of \p N in its tree (root = 0).
  unsigned depth(ForestNodeId N) const;

  /// \returns true iff clock \p A is included in clock \p B, i.e.
  /// node(A).Bdd ⇒ node(B).Bdd; meaningful when both lie in one tree.
  /// Exact: the literal hulls settle most tests (see the file comment),
  /// BddManager::implies the rest (counted in stats()).
  bool includes(ForestNodeId A, ForestNodeId B);

  /// The BDD variable standing for the value of condition \p C.
  /// \returns the variable, or ~0u if \p C never became a condition.
  BddVar conditionVar(SignalId C) const;

  const ForestBuildStats &stats() const { return Stats; }
  BddManager &bddManager() { return Mgr; }

  /// Size of the representation itself: shared BDD nodes reachable from
  /// the alive tree nodes (the paper's "nodes" column measures the size
  /// of the representation, not allocator churn).
  uint64_t liveBddNodes() const;

  /// Renders the forest as an indented tree listing (tests, -dump-tree).
  std::string dump(const ClockSystem &Sys, const KernelProgram &Prog,
                   const StringInterner &Names);

  /// Renders the forest as a Graphviz digraph (solid edges = tree
  /// inclusion, dashed = derived/residual operand dependencies).
  std::string toDot(const ClockSystem &Sys, const KernelProgram &Prog,
                    const StringInterner &Names);

private:
  struct ResolvedOperand {
    bool Null = false;
    ForestNodeId Node = InvalidForestNode;
    ForestNodeId Root = InvalidForestNode;
    BddRef Bdd;
  };

  ForestNodeId rootOf(ForestNodeId N) const;
  ForestNodeId newNode(ClockVarId Rep);
  /// The one writer of node BDDs: stores \p F and marks N's hull stale.
  void setBdd(ForestNodeId N, BddRef F);
  void markNullSubtree(ForestNodeId N);
  void setClassNull(ClockVarId Rep);
  bool classIsNull(ClockVarId Rep);
  ResolvedOperand resolveOperand(ClockVarId V);

  /// Recomputes the BDDs of \p Sub's proper descendants after \p Sub's own
  /// BDD changed from "true" (it was a root) to its new in-tree value.
  bool refreshSubtreeBdds(ForestNodeId Sub);

  /// Finds the deepest alive node of the tree rooted at \p Root whose BDD
  /// contains \p Target's; also reports an exact-BDD match if one exists.
  ForestNodeId findDeepestParent(ForestNodeId Root, ForestNodeId Target,
                                 ForestNodeId *EqualNode);

  /// \p N's literal hull (HullWords words), computed on first use after
  /// its BDD last changed.
  const uint64_t *hull(ForestNodeId N);
  /// Essential literals of a BDD with both cofactors non-false: a walk
  /// memoised per call, each visited ref's set stored once in HullMemo.
  /// \returns the offset of \p F's set in HullMemo.
  uint32_t essentialLiterals(BddRef F);

  /// Attaches the tree rooted at \p Sub into the tree of \p TargetRoot,
  /// giving Sub the relative BDD \p NewBdd. Merges classes on BDD
  /// equality. \returns false on budget exhaustion or cycle.
  bool attachSubtree(ForestNodeId Sub, ForestNodeId TargetRoot, BddRef NewBdd,
                     DiagnosticEngine &Diags, SourceLoc Loc);

  /// Merges class/subtree of \p From into node \p Into (equal BDDs).
  bool mergeInto(ForestNodeId From, ForestNodeId Into,
                 DiagnosticEngine &Diags, SourceLoc Loc);

  void appendDump(ForestNodeId N, unsigned Indent, const ClockSystem &Sys,
                  const KernelProgram &Prog, const StringInterner &Names,
                  std::string &Out);

  BddManager &Mgr;
  UnionFind Classes;
  std::unordered_map<ClockVarId, ForestNodeId> ClassNode;
  std::unordered_map<ClockVarId, bool> NullClass;
  std::unordered_map<SignalId, BddVar> CondVars;
  std::vector<ClockNode> Nodes;
  ForestBuildStats Stats;

  /// Literal hulls, HullWords words per node: bit 2v is set when the BDD
  /// forces condition variable v true, bit 2v+1 when it forces v false.
  /// The false function forces every literal.
  enum class HullState : uint8_t { Stale, Cube, NonCube };
  unsigned HullWords = 0;
  std::vector<uint64_t> HullBits;
  std::vector<HullState> Hulls;
  /// Scratch of essentialLiterals(): literal sets back to back (slot 0 is
  /// the empty set, slot 1 the full one) and an open-addressed index from
  /// BddRef bits to set offsets; an entry belongs to the current walk iff
  /// its stamp equals HullWalk.
  struct MemoSlot {
    uint32_t Ref = 0;
    uint32_t Walk = 0; ///< 0: empty (walks are numbered from 1).
    uint32_t Offset = 0;
  };
  std::vector<uint64_t> HullMemo;
  std::vector<MemoSlot> MemoIndex;
  uint32_t MemoCount = 0;
  uint32_t HullWalk = 0;
};

} // namespace sigc

#endif // SIGNALC_FOREST_CLOCKFOREST_H
