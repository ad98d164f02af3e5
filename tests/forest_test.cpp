//===--- forest_test.cpp - Arborescent canonical form ---------------------===//

#include "TestUtil.h"
#include "programs/Programs.h"
#include "testing/RandomProgram.h"

#include <gtest/gtest.h>

#include <random>

using namespace sigc;
using namespace sigc::test;

namespace {

/// Finds the clock variable of signal \p Name.
ClockVarId clockOf(Compilation &C, const std::string &Name) {
  for (SignalId S = 0; S < C.Kernel->numSignals(); ++S)
    if (C.names().spelling(C.Kernel->Signals[S].Name) == Name)
      return C.Clocks.signalClock(S);
  ADD_FAILURE() << "no signal " << Name;
  return InvalidClockVar;
}

SignalId sigOf(Compilation &C, const std::string &Name) {
  for (SignalId S = 0; S < C.Kernel->numSignals(); ++S)
    if (C.names().spelling(C.Kernel->Signals[S].Name) == Name)
      return S;
  ADD_FAILURE() << "no signal " << Name;
  return InvalidSignal;
}

/// True if node of A is a (possibly transitive) descendant of node of B.
bool isDescendant(Compilation &C, ClockVarId A, ClockVarId B) {
  ForestNodeId NA = C.Forest->nodeOf(A);
  ForestNodeId NB = C.Forest->nodeOf(B);
  if (NA == InvalidForestNode || NB == InvalidForestNode)
    return false;
  while (NA != InvalidForestNode) {
    if (NA == NB)
      return true;
    NA = C.Forest->node(NA).Parent;
  }
  return false;
}

} // namespace

TEST(Forest, WhenPlacesClockUnderLiteral) {
  auto C = compileOk(proc("? integer A; boolean CC; ! integer Y;",
                          "   Y := A when CC\n   | synchro {A, CC}"));
  // ^Y = ^A ∧ [CC] with ^A = ^CC: Y's clock must merge with [CC] itself.
  EXPECT_EQ(C->Forest->rep(clockOf(*C, "Y")),
            C->Forest->rep(C->Clocks.posLiteral(sigOf(*C, "CC"))));
}

TEST(Forest, PartitionChildrenUnderCondition) {
  auto C = compileOk(proc("? boolean CC; ! boolean Y;", "   Y := not CC"));
  ClockVarId Pos = C->Clocks.posLiteral(sigOf(*C, "CC"));
  ClockVarId Neg = C->Clocks.negLiteral(sigOf(*C, "CC"));
  ClockVarId Parent = clockOf(*C, "CC");
  EXPECT_TRUE(isDescendant(*C, Pos, Parent));
  EXPECT_TRUE(isDescendant(*C, Neg, Parent));
  // And they are distinct non-null classes.
  EXPECT_NE(C->Forest->rep(Pos), C->Forest->rep(Neg));
  EXPECT_FALSE(C->Forest->isNull(Pos));
  EXPECT_FALSE(C->Forest->isNull(Neg));
}

TEST(Forest, ChildSubsetOfParentInvariant) {
  // After building any of the benchmark-ish programs, every child BDD
  // implies its parent BDD (the defining invariant of the hierarchy).
  auto C = compileOk(proc(
      "? integer A; boolean C1, C2; ! integer Y;",
      "   T1 := A when C1\n   | T2 := T1 when C2\n   | Z := T1 default T2\n"
      "   | Y := Z",
      "integer T1, T2, Z;"));
  BddManager &M = C->Bdds;
  for (ForestNodeId N : C->Forest->dfsOrder()) {
    const ClockNode &Node = C->Forest->node(N);
    if (Node.Parent == InvalidForestNode)
      continue;
    EXPECT_TRUE(M.implies(Node.Bdd, C->Forest->node(Node.Parent).Bdd));
  }
}

TEST(Forest, DfsVisitsParentsFirst) {
  auto C = compileOk(proc("? integer A; boolean C1, C2; ! integer Y;",
                          "   T1 := A when C1\n   | Y := T1 when C2",
                          "integer T1;"));
  std::vector<ForestNodeId> Order = C->Forest->dfsOrder();
  std::vector<int> Position(C->Forest->numNodes(), -1);
  for (unsigned I = 0; I < Order.size(); ++I)
    Position[Order[I]] = static_cast<int>(I);
  for (ForestNodeId N : Order) {
    ForestNodeId P = C->Forest->node(N).Parent;
    if (P != InvalidForestNode) {
      EXPECT_LT(Position[P], Position[N]);
    }
  }
}

TEST(Forest, IntersectionInsertedUnderDeepest) {
  // M := A1 when Q: ^M = [P] ∧ [Q]; both literals sit under ^IN, so ^M
  // must be strictly below one of them, not under the root.
  auto C = compileOk(proc("? integer IN; ! integer OUT;",
                          "   P := (IN mod 2) = 0\n"
                          "   | A1 := IN when P\n"
                          "   | Q := (IN mod 3) = 0\n"
                          "   | M := A1 when Q\n"
                          "   | OUT := IN default M",
                          "boolean P, Q; integer A1, M;"));
  ClockVarId MC = clockOf(*C, "M");
  ForestNodeId MN = C->Forest->nodeOf(MC);
  ASSERT_NE(MN, InvalidForestNode);
  EXPECT_GE(C->Forest->depth(MN), 2u);
}

TEST(Forest, UnionMergesWithRootWhenCovering) {
  // ^Y = [C] ∨ [¬C] = ^C: the union must merge with the root class, not
  // become a new node.
  auto C = compileOk(proc("? boolean CC; ! integer Y;",
                          "   U := 1 when CC\n"
                          "   | V := 2 when (not CC)\n"
                          "   | Y := U default V",
                          "integer U, V;"));
  EXPECT_EQ(C->Forest->rep(clockOf(*C, "Y")),
            C->Forest->rep(clockOf(*C, "CC")));
}

TEST(Forest, AlarmHierarchyMatchesFigure7) {
  auto C = compileOk(R"(
process ALARM =
  ( ? boolean BRAKE, STOP_OK, LIMIT_REACHED;
    ! boolean ALARM; )
  (| BRAKING_STATE := BRAKING_NEXT_STATE $ 1 init false
   | BRAKING_NEXT_STATE :=
       (true when BRAKE) default (false when STOP_OK) default BRAKING_STATE
   | synchro {when BRAKING_STATE, STOP_OK, LIMIT_REACHED}
   | synchro {when (not BRAKING_STATE), BRAKE}
   | ALARM := LIMIT_REACHED and (not STOP_OK)
  |)
  where boolean BRAKING_STATE, BRAKING_NEXT_STATE; end;
)");
  // ĉSTOP_OK = ĉLIMIT = ĉALARM = [BRAKING_STATE].
  ClockVarId StateLit = C->Clocks.posLiteral(sigOf(*C, "BRAKING_STATE"));
  EXPECT_EQ(C->Forest->rep(clockOf(*C, "STOP_OK")),
            C->Forest->rep(StateLit));
  EXPECT_EQ(C->Forest->rep(clockOf(*C, "ALARM")), C->Forest->rep(StateLit));
  // ĉBRAKE = [¬BRAKING_STATE].
  ClockVarId NegLit = C->Clocks.negLiteral(sigOf(*C, "BRAKING_STATE"));
  EXPECT_EQ(C->Forest->rep(clockOf(*C, "BRAKE")), C->Forest->rep(NegLit));
  // [BRAKE] under [¬BRAKING_STATE]; [STOP_OK] under [BRAKING_STATE].
  EXPECT_TRUE(isDescendant(*C, C->Clocks.posLiteral(sigOf(*C, "BRAKE")),
                           NegLit));
  EXPECT_TRUE(isDescendant(*C, C->Clocks.posLiteral(sigOf(*C, "STOP_OK")),
                           StateLit));
  // Exactly one free clock: the master ĉ (paper Section 3.3).
  EXPECT_EQ(C->Forest->freeClocks().size(), 1u);
  EXPECT_EQ(C->Forest->rep(clockOf(*C, "BRAKING_STATE")),
            C->Forest->node(C->Forest->freeClocks()[0]).Rep);
  // The cyclic equation ĉ = [D] ∨ [C1] ∨ ĉ was discharged by rewriting.
  EXPECT_GE(C->Forest->stats().VerifiedEquations, 1u);
}

TEST(Forest, EmptyClockDetected) {
  // Y := (A when C) when (not C) has the null clock [C] ∧ [¬C]
  // (A and CC synchronized so the literals share a tree).
  auto C = compileOk(proc("? integer A; boolean CC; ! integer Y;",
                          "   synchro {A, CC}\n"
                          "   | T := A when CC\n"
                          "   | U := T when (not CC)\n"
                          "   | Y := A default U",
                          "integer T, U;"));
  EXPECT_TRUE(C->Forest->isNull(clockOf(*C, "U")));
  EXPECT_GE(C->Forest->stats().NullClocks, 1u);
}

TEST(Forest, ConditionAlwaysTrueCollapsesNegLiteral) {
  // synchro {when C, C} forces [C] = ĉ, hence [¬C] = 0̂.
  auto C = compileOk(proc("? boolean CC; ! boolean Y;",
                          "   Y := CC\n   | synchro {when CC, CC}"));
  SignalId S = sigOf(*C, "CC");
  EXPECT_FALSE(C->Forest->isNull(C->Clocks.posLiteral(S)));
  EXPECT_TRUE(C->Forest->isNull(C->Clocks.negLiteral(S)));
  EXPECT_EQ(C->Forest->rep(C->Clocks.posLiteral(S)),
            C->Forest->rep(clockOf(*C, "CC")));
}

TEST(Forest, ContradictoryClockRejected) {
  // Equating the positive literals of two independent conditions cannot
  // be proved by the hierarchy (it would only hold if C ≡ D at every
  // instant) — the compiler rejects the program, as the paper allows for
  // its incomplete heuristic.
  auto C = compileErr(proc("? integer A; boolean CC, DD; ! integer Y;",
                           "   synchro {A, CC}\n   | synchro {A, DD}\n"
                           "   | T := A when CC\n   | U := A when DD\n"
                           "   | synchro {T, U}\n   | Y := A",
                           "integer T, U;"),
                      CompileStage::ClockCalculus);
  EXPECT_NE(C->Diags.render().find("temporally incorrect"),
            std::string::npos);
}

TEST(Forest, EquatingLiteralsOfOneConditionCollapses) {
  // synchro {when CC, when (not CC)} forces [C] = [¬C], hence everything
  // on CC's clock is empty — accepted, with the clocks proved null.
  auto C = compileOk(proc("? boolean CC; ! boolean Y;",
                          "   Y := CC\n"
                          "   | synchro {when CC, when (not CC)}"));
  SignalId S = sigOf(*C, "CC");
  EXPECT_TRUE(C->Forest->isNull(C->Clocks.posLiteral(S)));
  EXPECT_TRUE(C->Forest->isNull(C->Clocks.negLiteral(S)));
  EXPECT_TRUE(C->Forest->isNull(clockOf(*C, "CC")));
}

TEST(Forest, CrossTreeDefinitionBecomesResidual) {
  // A and B have unrelated clocks; Y := A default B is a cross-tree union
  // kept as an explicit residual definition rooted at ^Y.
  auto C = compileOk(proc("? integer A, B; ! integer Y;",
                          "   Y := A default B"));
  ForestNodeId YN = C->Forest->nodeOf(clockOf(*C, "Y"));
  ASSERT_NE(YN, InvalidForestNode);
  EXPECT_EQ(C->Forest->node(YN).Def, ClockDefKind::Residual);
  EXPECT_EQ(C->Forest->stats().ResidualDefinitions, 1u);
  // Free clocks: ^A and ^B but not ^Y.
  EXPECT_EQ(C->Forest->freeClocks().size(), 2u);
}

TEST(Forest, SynchronizedInputsShareNode) {
  auto C = compileOk(proc("? integer A, B; ! integer Y;",
                          "   Y := A + B"));
  EXPECT_EQ(C->Forest->rep(clockOf(*C, "A")), C->Forest->rep(clockOf(*C,
                                                                     "B")));
  EXPECT_EQ(C->Forest->freeClocks().size(), 1u);
}

TEST(Forest, StatsReported) {
  auto C = compileOk(proc("? integer A; boolean C1; ! integer Y;",
                          "   Y := A when C1"));
  const ForestBuildStats &St = C->Forest->stats();
  EXPECT_GE(St.Iterations, 1u);
  EXPECT_GT(St.BddNodes, 0u);
}

TEST(Forest, DumpShowsHierarchy) {
  auto C = compileOk(proc("? integer A; boolean C1; ! integer Y;",
                          "   Y := A when C1\n   | synchro {A, C1}"));
  std::string D = C->Forest->dump(C->Clocks, *C->Kernel, C->names());
  EXPECT_NE(D.find("[literal +C1]"), std::string::npos) << D;
  EXPECT_NE(D.find("free root"), std::string::npos) << D;
}

TEST(Forest, DotExportShowsTreeAndOperandEdges) {
  auto C = compileOk(proc("? integer A, B; boolean C1; ! integer Y;",
                          "   T := A when C1\n   | Y := T default B",
                          "integer T;"));
  std::string Dot = C->Forest->toDot(C->Clocks, *C->Kernel, C->names());
  EXPECT_NE(Dot.find("digraph clocks"), std::string::npos);
  EXPECT_NE(Dot.find("style=dashed"), std::string::npos) << Dot;
  EXPECT_NE(Dot.find("[C1]"), std::string::npos) << Dot;
}

TEST(Forest, DeepChainDepthGrows) {
  // Divider chain: each stage's clock nests under the previous literal.
  std::string Body = "   C1 := (IN mod 2) = 0\n"
                     "   | S1 := IN when C1\n"
                     "   | C2 := (S1 mod 2) = 0\n"
                     "   | S2 := S1 when C2\n"
                     "   | C3 := (S2 mod 2) = 0\n"
                     "   | S3 := S2 when C3\n"
                     "   | OUT := S3";
  auto C = compileOk(proc("? integer IN; ! integer OUT;", Body,
                          "boolean C1, C2, C3; integer S1, S2, S3;"));
  ForestNodeId N = C->Forest->nodeOf(clockOf(*C, "S3"));
  ASSERT_NE(N, InvalidForestNode);
  EXPECT_EQ(C->Forest->depth(N), 3u);
}

TEST(Forest, BudgetExhaustionReportsUnable) {
  // A tiny node budget must abort resolution with UnableMem, not crash.
  // (Two nodes: with complement edges this program needs only four BDD
  // nodes in total — ¬x shares x's node — so the pre-rework limit of
  // eight no longer trips.)
  CompileOptions Options;
  Options.Limits = Budget(0, 2);
  auto C = compileSource("<budget>", proc("? integer IN; ! integer OUT;",
                                          "   C1 := (IN mod 2) = 0\n"
                                          "   | S1 := IN when C1\n"
                                          "   | C2 := (S1 mod 2) = 0\n"
                                          "   | S2 := S1 when C2\n"
                                          "   | OUT := S2",
                                          "boolean C1, C2; integer S1, S2;"),
                         Options);
  EXPECT_FALSE(C->Ok);
  EXPECT_EQ(C->FailedStage, CompileStage::ClockCalculus);
  EXPECT_EQ(C->ForestBudget.verdict(), BudgetVerdict::UnableMem);
}

//===----------------------------------------------------------------------===//
// Property sweep: randomized when/default programs keep the invariants.
//===----------------------------------------------------------------------===//

namespace {
class ForestPropertyTest : public ::testing::TestWithParam<unsigned> {};
} // namespace

TEST_P(ForestPropertyTest, InvariantsHoldOnRandomPrograms) {
  unsigned Seed = GetParam();
  std::mt19937 Rng(Seed);
  // Build a random but well-formed chain/merge program.
  std::string Body;
  std::string Locals = "boolean B0; ";
  std::vector<std::string> Pool{"IN"};
  Body += "   B0 := (IN mod 2) = 0\n";
  std::vector<std::string> Conds{"B0"};
  unsigned NextId = 1;
  for (unsigned I = 0; I < 8; ++I) {
    unsigned Kind = Rng() % 3;
    std::string New = "S" + std::to_string(NextId);
    if (Kind == 0) {
      // Downsample a pool signal by a random condition.
      std::string Src = Pool[Rng() % Pool.size()];
      std::string Cond = Conds[Rng() % Conds.size()];
      Locals += "integer " + New + "; ";
      Body += "   | " + New + " := " + Src + " when " + Cond + "\n";
      Pool.push_back(New);
    } else if (Kind == 1) {
      // Merge two pool signals.
      std::string A = Pool[Rng() % Pool.size()];
      std::string B = Pool[Rng() % Pool.size()];
      Locals += "integer " + New + "; ";
      Body += "   | " + New + " := " + A + " default " + B + "\n";
      Pool.push_back(New);
    } else {
      // New condition on a pool signal.
      std::string Src = Pool[Rng() % Pool.size()];
      std::string CN = "B" + std::to_string(NextId);
      Locals += "boolean " + CN + "; ";
      Body += "   | " + CN + " := (" + Src + " mod 3) = 0\n";
      Conds.push_back(CN);
    }
    ++NextId;
  }
  Body += "   | OUT := " + Pool.back();
  auto C = compileOk(proc("? integer IN; ! integer OUT;", Body, Locals));
  if (!C->Ok)
    return;

  BddManager &M = C->Bdds;
  std::vector<ForestNodeId> Order = C->Forest->dfsOrder();
  for (ForestNodeId N : Order) {
    const ClockNode &Node = C->Forest->node(N);
    EXPECT_TRUE(Node.Alive);
    EXPECT_FALSE(Node.Bdd.isFalse()) << "null clock kept a node";
    if (Node.Parent != InvalidForestNode) {
      // child ⊆ parent, strictly.
      EXPECT_TRUE(M.implies(Node.Bdd, C->Forest->node(Node.Parent).Bdd));
      EXPECT_NE(Node.Bdd, C->Forest->node(Node.Parent).Bdd);
    }
    // No two siblings share a BDD (canonicity).
    if (Node.Parent != InvalidForestNode) {
      for (ForestNodeId Sib : C->Forest->node(Node.Parent).Children) {
        if (Sib != N) {
          EXPECT_NE(C->Forest->node(Sib).Bdd, Node.Bdd);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, ForestPropertyTest,
                         ::testing::Range(0u, 20u));

//===----------------------------------------------------------------------===//
// The inclusion predicate: literal hulls first, BDD walk as the fallback.
//===----------------------------------------------------------------------===//

namespace {

/// Checks ClockForest::includes(A, B) against BddManager::implies on the
/// ordered pairs of alive nodes that share a root; with \p Stride > 1,
/// on every Stride-th such pair only.
void expectIncludesMatchesImplies(Compilation &C, const std::string &What,
                                  unsigned Stride = 1) {
  ClockForest &F = *C.Forest;
  std::vector<ForestNodeId> Nodes = F.dfsOrder();
  std::vector<ForestNodeId> Root(F.numNodes(), InvalidForestNode);
  for (ForestNodeId N : Nodes) {
    ForestNodeId P = F.node(N).Parent;
    Root[N] = P == InvalidForestNode ? N : Root[P];
  }
  uint64_t Pairs = 0, Checked = 0, Mismatches = 0;
  std::string First;
  for (ForestNodeId A : Nodes)
    for (ForestNodeId B : Nodes) {
      if (Root[A] != Root[B] || Pairs++ % Stride != 0)
        continue;
      ++Checked;
      bool Want = F.bddManager().implies(F.node(A).Bdd, F.node(B).Bdd);
      if (F.includes(A, B) != Want && Mismatches++ == 0)
        First = "includes(" + std::to_string(A) + ", " + std::to_string(B) +
                ") should be " + (Want ? "true" : "false");
    }
  EXPECT_GT(Checked, 0u) << What;
  EXPECT_EQ(Mismatches, 0u) << What << ": " << First;
}

} // namespace

TEST(ForestIncludes, MatchesImpliesOnEveryBuiltin) {
  std::vector<std::pair<std::string, std::string>> Programs = {
      {"FIG5_ALARM", alarmFigure5Source()}};
  for (const Figure13Program &P : figure13Suite())
    Programs.emplace_back(P.Name, P.Source);
  ASSERT_EQ(Programs.size(), 8u);
  for (const auto &[Name, Source] : Programs) {
    auto C = compileOk(Source);
    ASSERT_TRUE(C->Ok) << Name;
    // STOPWATCH has 687 alive nodes; a stride keeps the test short.
    expectIncludesMatchesImplies(*C, Name, Name == "STOPWATCH" ? 13 : 1);
  }
}

TEST(ForestIncludes, MatchesImpliesOnRandomPrograms) {
  for (uint64_t Seed = 0; Seed < 60; ++Seed) {
    auto C = compileOk(generateRandomProgram("R", Seed));
    ASSERT_TRUE(C->Ok) << "seed " << Seed;
    expectIncludesMatchesImplies(*C, "seed " + std::to_string(Seed));
  }
}

TEST(ForestIncludes, HullSpansSeveralWords) {
  // 40 conditions on one clock: hulls take 80 bits, two 64-bit words. The
  // samples and unions mix literals from both words.
  const unsigned N = 40;
  std::string Body = "   OUT := IN", Locals;
  for (unsigned I = 0; I < N; ++I) {
    std::string S = std::to_string(I);
    Locals += "boolean C" + S + "; integer A" + S + ", U" + S + ", K" + S +
              "; ";
    Body += "\n   | C" + S + " := (IN mod " + std::to_string(I + 2) +
            ") = 0\n   | A" + S + " := IN when C" + S;
    std::string Next = std::to_string((I + 1) % N);
    std::string Far = std::to_string((I + 29) % N);
    Body += "\n   | U" + S + " := A" + S + " default A" + Next;
    Body += "\n   | K" + S + " := U" + S + " when C" + Far;
  }
  auto C = compileOk(proc("? integer IN; ! integer OUT;", Body, Locals));
  ASSERT_TRUE(C->Ok);
  ASSERT_GT(C->Clocks.conditions().size(), 32u);
  expectIncludesMatchesImplies(*C, "40 conditions");
}

TEST(ForestIncludes, NonCubeUnionUsesTheMemoisedWalk) {
  // ^V = [CA] ∧ ([CB] ∨ [CC]) ∧ [CD]: not a cube, and its BDD branches on
  // CB/CC before it reaches CD, so [CD] is found by the memoised walk.
  auto C = compileOk(proc("? integer IN; ! integer OUT;",
                          "   CA := (IN mod 2) = 0\n"
                          "   | CB := (IN mod 3) = 0\n"
                          "   | CC := (IN mod 5) = 0\n"
                          "   | CD := (IN mod 7) = 0\n"
                          "   | X := IN when CA\n"
                          "   | U := (X when CB) default (X when CC)\n"
                          "   | V := U when CD\n"
                          "   | W := (V when CB) default (X when CD)\n"
                          "   | OUT := IN default W",
                          "boolean CA, CB, CC, CD; integer X, U, V, W;"));
  ASSERT_TRUE(C->Ok);
  ClockForest &F = *C->Forest;
  ForestNodeId V = F.nodeOf(clockOf(*C, "V"));
  ForestNodeId D = F.nodeOf(C->Clocks.posLiteral(sigOf(*C, "CD")));
  ForestNodeId A = F.nodeOf(C->Clocks.posLiteral(sigOf(*C, "CA")));
  ASSERT_NE(V, InvalidForestNode);
  // [CD] and [CA] are cubes; V forces both literals, so the hulls settle
  // both tests with no BDD walk.
  unsigned Fallbacks = F.stats().InclusionBddFallbacks;
  EXPECT_TRUE(F.includes(V, D));
  EXPECT_TRUE(F.includes(V, A));
  EXPECT_FALSE(F.includes(D, V));
  EXPECT_EQ(F.stats().InclusionBddFallbacks, Fallbacks);
  expectIncludesMatchesImplies(*C, "non-cube union");
}

TEST(ForestIncludes, HullsSettleMostTestsOnFigure13) {
  // Fallbacks to the BDD walk on the seven programs: STOPWATCH 4,157 of
  // 39,655, WATCH 2,151 of 16,809, ALARM 519 of 3,219, CHRONO 126 of
  // 2,534. Pin them at a fifth at most.
  for (const Figure13Program &P : figure13Suite()) {
    auto C = compileOk(P.Source);
    ASSERT_TRUE(C->Ok) << P.Name;
    const ForestBuildStats &St = C->Forest->stats();
    EXPECT_GT(St.InclusionTests, 0u) << P.Name;
    EXPECT_LE(5u * St.InclusionBddFallbacks, St.InclusionTests) << P.Name;
  }
}
