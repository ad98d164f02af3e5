//===--- VmExecutor.cpp ---------------------------------------------------===//
//
// The typed opcodes and their bodies are one X-macro list, SIGC_VM_OPS;
// the opcode enum and the dispatch loop are generated from it, so they
// cannot drift. The loop is direct-threaded (GNU labels-as-values): one
// `goto *` per op body instead of a switch's single shared indirect
// branch, so the predictor learns each opcode's actual successor
// distribution. Compilers without labels-as-values, and builds with
// -DSIGC_VM_NO_COMPUTED_GOTO, get the same bodies as a switch loop.
//
//===----------------------------------------------------------------------===//

#include "interp/VmExecutor.h"

#include "sema/Kernel.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <unordered_map>

#if !defined(SIGC_VM_NO_COMPUTED_GOTO) && \
    (defined(__GNUC__) || defined(__clang__))
#define SIGC_VM_COMPUTED_GOTO 1
#else
#define SIGC_VM_COMPUTED_GOTO 0
#endif

using namespace sigc;

//===--- The typed op bodies ----------------------------------------------===//
//
// X(Name, Body...) per opcode. In scope: In (the instruction), S (the
// frame), Clock, State, and the instant's window entries Ticks, Ins (both
// strided by Cap), OutPresent and Outs. Skip and Halt are not in the
// list: they are the ops that move the PC non-linearly and touch the
// counters, so the loop hand-rolls them. Booleans and events
// are 0/1 in Slot::I, so logic runs on I directly. Bodies may contain
// commas — the macro is variadic.

#define SIGC_VM_BIN(X, Name, M, Expr)                                          \
  X(Name, {                                                                    \
    auto L = S[In.A].M, R = S[In.B].M;                                         \
    S[In.T].M = Expr;                                                          \
  })
#define SIGC_VM_CMP(X, Name, M, Op)                                            \
  X(Name, S[In.T].I = (S[In.A].M Op S[In.B].M) ? 1 : 0;)
// Orderings compare through double, integers included, as
// Value::asReal() does.
#define SIGC_VM_CMPI(X, Name, Op)                                              \
  X(Name, S[In.T].I = (static_cast<double>(S[In.A].I)                          \
                           Op static_cast<double>(S[In.B].I))                  \
                          ? 1                                                  \
                          : 0;)

#define SIGC_VM_OPS(X)                                                         \
  X(ReadClock, Clock[In.T] = Ticks[In.A * Cap] != 0;)                          \
  X(ClockLit, Clock[In.T] = S[In.A].I == In.B ? 1 : 0;)                        \
  X(ClockAnd, Clock[In.T] = Clock[In.A] & Clock[In.B];)                        \
  X(ClockOr, Clock[In.T] = Clock[In.A] | Clock[In.B];)                         \
  X(ClockDiff,                                                                 \
    Clock[In.T] = static_cast<char>(Clock[In.A] & (Clock[In.B] ^ 1));)         \
  X(CopyClock, Clock[In.T] = Clock[In.A];)                                     \
  X(ClockFalse, Clock[In.T] = 0;)                                              \
  X(ReadSignal, S[In.T] = Ins[In.A * Cap];)                                    \
  X(Copy, S[In.T] = S[In.A];)                                                  \
  X(Select, S[In.T] = Clock[In.C] ? S[In.A] : S[In.B];)                        \
  X(LoadDelay, S[In.T] = State[In.A];)                                         \
  X(StoreDelay, State[In.T] = S[In.A];)                                        \
  X(Write, {                                                                   \
    OutPresent[In.B] = 1;                                                      \
    Outs[In.B] = S[In.A];                                                      \
  })                                                                           \
  X(ToD, S[In.T].D = static_cast<double>(S[In.A].I);)                          \
  X(NotB, S[In.T].I = S[In.A].I ^ 1;)                                          \
  X(NegI, S[In.T].I = wrapNeg(S[In.A].I);)                                     \
  X(NegD, S[In.T].D = -S[In.A].D;)                                             \
  SIGC_VM_BIN(X, AddI, I, wrapAdd(L, R))                                       \
  SIGC_VM_BIN(X, SubI, I, wrapSub(L, R))                                       \
  SIGC_VM_BIN(X, MulI, I, wrapMul(L, R))                                       \
  /* R == -1 is negation: INT64_MIN / -1 overflows. */                         \
  SIGC_VM_BIN(X, DivI, I, R == 0 ? 0 : R == -1 ? wrapNeg(L) : L / R)           \
  SIGC_VM_BIN(X, ModI, I, (R == 0 || R == -1) ? 0 : ((L % R) + R) % R)         \
  SIGC_VM_BIN(X, AddD, D, L + R)                                               \
  SIGC_VM_BIN(X, SubD, D, L - R)                                               \
  SIGC_VM_BIN(X, MulD, D, L * R)                                               \
  SIGC_VM_BIN(X, DivD, D, R == 0.0 ? 0.0 : L / R)                              \
  SIGC_VM_BIN(X, AndB, I, L & R)                                               \
  SIGC_VM_BIN(X, OrB, I, L | R)                                                \
  SIGC_VM_BIN(X, XorB, I, L ^ R)                                               \
  SIGC_VM_CMP(X, EqI, I, ==)                                                   \
  SIGC_VM_CMP(X, NeI, I, !=)                                                   \
  SIGC_VM_CMP(X, EqD, D, ==)                                                   \
  SIGC_VM_CMP(X, NeD, D, !=)                                                   \
  SIGC_VM_CMPI(X, LtI, <)                                                      \
  SIGC_VM_CMPI(X, LeI, <=)                                                     \
  SIGC_VM_CMPI(X, GtI, >)                                                      \
  SIGC_VM_CMPI(X, GeI, >=)                                                     \
  SIGC_VM_CMP(X, LtD, D, <)                                                    \
  SIGC_VM_CMP(X, LeD, D, <=)                                                   \
  SIGC_VM_CMP(X, GtD, D, >)                                                    \
  SIGC_VM_CMP(X, GeD, D, >=)

namespace {

/// Typed opcodes: Halt, Skip, then SIGC_VM_OPS in list order (the
/// computed-goto table is built positionally from the same list).
enum class TOp : uint8_t {
  Halt,
  Skip,
#define SIGC_VM_ENUM(Name, ...) Name,
  SIGC_VM_OPS(SIGC_VM_ENUM)
#undef SIGC_VM_ENUM
};

using TInstr = VmExecutor::TInstr;

/// Lowers CompiledStep::Code to typed code over the frame layout
/// [values | scratch | 2 conversion slots | constants].
class TypedLowering {
public:
  TypedLowering(const CompiledStep &CS, VmExecutor::TypedCode &Out)
      : CS(CS), Kinds(computeStepKinds(CS)), Code(Out.Code),
        Consts(Out.Consts), RootWeight(Out.RootWeight),
        ConvBase(static_cast<int32_t>(CS.NumValueSlots + CS.NumTempSlots)),
        FlushPos(CS.Outputs.size(), 0) {
    for (size_t Pos = 0; Pos < CS.OutputFlushOrder.size(); ++Pos)
      FlushPos[CS.OutputFlushOrder[Pos]] = static_cast<int32_t>(Pos);
  }

  void run() {
    const int32_t End = static_cast<int32_t>(CS.Code.size());
    std::vector<int32_t> NewPos(CS.Code.size() + 1, 0);
    // Open guards: (skip position in Code, source PC it jumps to).
    std::vector<std::pair<size_t, int32_t>> Open;
    RootWeight = 0;
    for (int32_t PC = 0; PC <= End; ++PC) {
      while (!Open.empty() && Open.back().second == PC)
        Open.pop_back();
      NewPos[PC] = static_cast<int32_t>(Code.size());
      if (PC == End)
        break;
      const VmInstr &In = CS.Code[PC];
      if (In.Op == VmOp::SkipIfAbsent) {
        Open.push_back({Code.size(), In.Aux});
        emit(TOp::Skip, In.Aux, In.A, 0);
        continue;
      }
      // A block is straight-line between guards: its direct
      // instructions run exactly when its guard holds.
      addWeight(Open.empty() ? -1 : static_cast<int>(Open.back().first),
                In.Weight);
      const InstrKinds &IK = Kinds.Instr[PC];
      lower(In, IK);
      // A real signal holds an integer result widened. A constant or a
      // default widens before the write (see lower()).
      if (IK.Widen && In.Op != VmOp::LoadConst && In.Op != VmOp::Select)
        emit(TOp::ToD, In.Target, In.Target);
    }
    emit(TOp::Halt);
    for (TInstr &T : Code)
      if (T.Op == static_cast<uint8_t>(TOp::Skip))
        T.T = NewPos[T.T];
  }

private:
  void addWeight(int SkipAt, int W) {
    if (SkipAt < 0)
      RootWeight += static_cast<uint64_t>(W);
    else
      Code[SkipAt].B += W;
  }

  void emit(TOp Op, int32_t T = -1, int32_t A = -1, int32_t B = -1,
            int32_t C = -1) {
    TInstr I;
    I.Op = static_cast<uint8_t>(Op);
    I.T = T;
    I.A = A;
    I.B = B;
    I.C = C;
    Code.push_back(I);
  }

  /// The frame slot of constant \p V (deduplicated by representation).
  int32_t constSlot(Slot V) {
    int64_t Bits;
    std::memcpy(&Bits, &V, sizeof V);
    auto [It, New] = ConstSlots.try_emplace(
        Bits, ConvBase + 2 + static_cast<int32_t>(Consts.size()));
    if (New)
      Consts.push_back(V);
    return It->second;
  }

  /// The frame slot of value operand \p Which (0 = A, 1 = B; of kind
  /// \p K) of \p In, widened to real when \p AsReal and \p K is integer:
  /// a constant converts at build time, a slot through a ToD into the
  /// operand's conversion slot.
  int32_t operand(const VmInstr &In, int Which, TypeKind K, bool AsReal) {
    bool IsConst = Which == 0 ? In.Op == VmOp::BinaryCS
                              : In.Op == VmOp::BinarySC;
    int32_t Idx = Which == 0 ? In.A : In.B;
    bool Widen = AsReal && K == TypeKind::Integer;
    if (IsConst)
      return constSlot(toSlot(CS.Consts[Idx], Widen ? TypeKind::Real : K));
    if (!Widen)
      return Idx;
    emit(TOp::ToD, ConvBase + Which, Idx);
    return ConvBase + Which;
  }

  void binary(const VmInstr &In, const InstrKinds &IK) {
    const BinaryOp Op = static_cast<BinaryOp>(In.Aux);
    const bool BothInt =
        IK.A == TypeKind::Integer && IK.B == TypeKind::Integer;
    auto isNum = [](TypeKind K) {
      return K == TypeKind::Integer || K == TypeKind::Real;
    };
    auto pick = [&](TOp IntOp, TOp RealOp, bool Int) {
      int32_t A = operand(In, 0, IK.A, !Int);
      int32_t B = operand(In, 1, IK.B, !Int);
      emit(Int ? IntOp : RealOp, In.Target, A, B);
    };
    switch (Op) {
    case BinaryOp::Add:
      return pick(TOp::AddI, TOp::AddD, BothInt);
    case BinaryOp::Sub:
      return pick(TOp::SubI, TOp::SubD, BothInt);
    case BinaryOp::Mul:
      return pick(TOp::MulI, TOp::MulD, BothInt);
    case BinaryOp::Div:
      return pick(TOp::DivI, TOp::DivD, BothInt);
    case BinaryOp::Mod:
      return pick(TOp::ModI, TOp::ModI, true);
    case BinaryOp::And:
      return pick(TOp::AndB, TOp::AndB, true);
    case BinaryOp::Or:
      return pick(TOp::OrB, TOp::OrB, true);
    case BinaryOp::Xor:
      return pick(TOp::XorB, TOp::XorB, true);
    case BinaryOp::Eq:
    case BinaryOp::Ne: {
      const bool Eq = Op == BinaryOp::Eq;
      const bool NumA = isNum(IK.A), NumB = isNum(IK.B);
      // Value::operator==: numeric kinds compare through double when
      // they differ; any other cross-kind pair (a boolean against an
      // event, a number against a boolean) is never equal.
      if (NumA != NumB || (!NumA && IK.A != IK.B)) {
        Slot R;
        R.I = Eq ? 0 : 1;
        return emit(TOp::Copy, In.Target, constSlot(R));
      }
      bool Int = BothInt || !NumA;
      return pick(Eq ? TOp::EqI : TOp::NeI, Eq ? TOp::EqD : TOp::NeD, Int);
    }
    case BinaryOp::Lt:
      return pick(TOp::LtI, TOp::LtD, BothInt);
    case BinaryOp::Le:
      return pick(TOp::LeI, TOp::LeD, BothInt);
    case BinaryOp::Gt:
      return pick(TOp::GtI, TOp::GtD, BothInt);
    case BinaryOp::Ge:
      return pick(TOp::GeI, TOp::GeD, BothInt);
    }
  }

  void lower(const VmInstr &In, const InstrKinds &IK) {
    switch (In.Op) {
    case VmOp::SkipIfAbsent:
      break; // handled by run()
    case VmOp::ReadClockInput:
      return emit(TOp::ReadClock, In.Target, In.Aux);
    case VmOp::EvalClockLiteral:
      return emit(TOp::ClockLit, In.Target, In.A, In.Aux != 0 ? 1 : 0);
    case VmOp::EvalClockAnd:
      return emit(TOp::ClockAnd, In.Target, In.A, In.B);
    case VmOp::EvalClockOr:
      return emit(TOp::ClockOr, In.Target, In.A, In.B);
    case VmOp::EvalClockDiff:
      return emit(TOp::ClockDiff, In.Target, In.A, In.B);
    case VmOp::CopyClock:
      return emit(TOp::CopyClock, In.Target, In.A);
    case VmOp::SetClockFalse:
      return emit(TOp::ClockFalse, In.Target);
    case VmOp::ReadSignal:
      return emit(TOp::ReadSignal, In.Target, In.Aux);
    case VmOp::UnarySlot:
      if (static_cast<UnaryOp>(In.Aux) == UnaryOp::Not)
        return emit(TOp::NotB, In.Target, In.A);
      if (IK.A == TypeKind::Integer)
        return emit(TOp::NegI, In.Target, In.A);
      return emit(TOp::NegD, In.Target, In.A);
    case VmOp::BinarySS:
    case VmOp::BinarySC:
    case VmOp::BinaryCS:
      return binary(In, IK);
    case VmOp::CopyValue:
      return emit(TOp::Copy, In.Target, In.A);
    case VmOp::LoadConst:
      return emit(TOp::Copy, In.Target,
                  constSlot(toSlot(CS.Consts[In.Aux], IK.Res)));
    case VmOp::Select: {
      // An integer arm of a real default (or of an integer default of a
      // real signal) widens; an event arm of a boolean one is already 1.
      const bool Real = isRealSlot(IK.Res);
      int32_t A = operand(In, 0, IK.A, Real);
      int32_t B = operand(In, 1, IK.B, Real);
      return emit(TOp::Select, In.Target, A, B, In.Aux);
    }
    case VmOp::LoadDelay:
      return emit(TOp::LoadDelay, In.Target, In.A);
    case VmOp::StoreDelay: {
      // A real init makes the memory of a delayed integer real: the
      // stored integer widens, as the emitted C's assignment to the
      // double state field does. Sema admits no other mismatch.
      const bool RealMemory = isRealSlot(CS.StateInit[In.Target].Kind);
      assert((RealMemory || !isRealSlot(IK.A)) &&
             "real value stored into an integer memory");
      return emit(TOp::StoreDelay, In.Target,
                  operand(In, 0, IK.A, RealMemory));
    }
    case VmOp::WriteOutput:
      // An output's value slot holds its declared type already.
      assert(isRealSlot(IK.A) == isRealSlot(CS.Outputs[In.Aux].Type) &&
             "output written in another representation than declared");
      return emit(TOp::Write, -1, In.A, FlushPos[In.Aux], In.Aux);
    }
  }

  const CompiledStep &CS;
  StepKinds Kinds;
  std::vector<TInstr> &Code;
  std::vector<Slot> &Consts;
  uint64_t &RootWeight;
  std::unordered_map<int64_t, int32_t> ConstSlots; ///< Bits -> frame slot.
  const int32_t ConvBase;
  std::vector<int32_t> FlushPos; ///< Output desc -> flush position.
};

} // namespace

VmExecutor::VmExecutor(const CompiledStep &CS,
                       std::shared_ptr<const TypedCode> Code)
    : CS(CS), Typed(std::move(Code)), StateInit(initialState(CS)), IO(CS) {
  if (!Typed) {
    auto Lowered = std::make_shared<TypedCode>();
    TypedLowering(CS, *Lowered).run();
    Typed = std::move(Lowered);
  }
  reset();
}

void VmExecutor::reset() {
  ClockSlots.assign(CS.NumClockSlots, 0);
  // Scratch and conversion slots live after the values, the read-only
  // constants after them.
  Frame.assign(CS.NumValueSlots + CS.NumTempSlots + 2, Slot{});
  Frame.insert(Frame.end(), Typed->Consts.begin(), Typed->Consts.end());
  StateSlots = StateInit;
}

void VmExecutor::setStateSlots(const std::vector<Slot> &S) {
  assert(S.size() == StateSlots.size() &&
         "state snapshot does not match the compiled step");
  StateSlots = S;
}

void VmExecutor::bind(Environment &Env) { Bind = bindEnv(Env, CS); }

void VmExecutor::execInstant(const unsigned char *Ticks, const Slot *Ins,
                             size_t Cap, unsigned char *OutPresent,
                             Slot *Outs, Slot *State) {
  // Presence is recomputed from scratch each instant.
  std::fill(ClockSlots.begin(), ClockSlots.end(), 0);

  const TInstr *Code = Typed->Code.data();
  char *Clock = ClockSlots.data();
  Slot *S = Frame.data();
  uint64_t Guards = 0, Exec = Typed->RootWeight;

#if SIGC_VM_COMPUTED_GOTO
  // Positional dispatch table: one label per TOp, in declaration order.
#define SIGC_VM_TABLE_ENTRY(Name, ...) &&L_##Name,
  static const void *const Table[] = {&&L_Halt, &&L_Skip,
                                      SIGC_VM_OPS(SIGC_VM_TABLE_ENTRY)};
#undef SIGC_VM_TABLE_ENTRY

  const TInstr *IP = Code;
#define SIGC_VM_DISPATCH() goto *Table[IP->Op]

  SIGC_VM_DISPATCH();

L_Halt:
  GuardTests += Guards;
  Executed += Exec;
  return;

L_Skip:
  ++Guards;
  if (Clock[IP->A]) {
    Exec += static_cast<uint64_t>(IP->B);
    ++IP;
  } else {
    IP = Code + IP->T;
  }
  SIGC_VM_DISPATCH();

#define SIGC_VM_LABEL(Name, ...)                                               \
  L_##Name : {                                                                 \
    const TInstr &In = *IP;                                                    \
    __VA_ARGS__                                                                \
    ++IP;                                                                      \
    SIGC_VM_DISPATCH();                                                        \
  }
  SIGC_VM_OPS(SIGC_VM_LABEL)
#undef SIGC_VM_LABEL
#undef SIGC_VM_DISPATCH
#else
  for (int32_t PC = 0;;) {
    const TInstr &In = Code[PC];
    switch (static_cast<TOp>(In.Op)) {
    case TOp::Halt:
      GuardTests += Guards;
      Executed += Exec;
      return;
    case TOp::Skip:
      ++Guards;
      if (Clock[In.A]) {
        Exec += static_cast<uint64_t>(In.B);
        ++PC;
      } else {
        PC = In.T;
      }
      continue;
#define SIGC_VM_CASE(Name, ...)                                                \
  case TOp::Name: {                                                            \
    __VA_ARGS__                                                                \
    ++PC;                                                                      \
    continue;                                                                  \
  }
      SIGC_VM_OPS(SIGC_VM_CASE)
#undef SIGC_VM_CASE
    }
  }
#endif
}

void VmExecutor::reserveBatch(unsigned MaxCount) {
  if (MaxCount <= IO.capacity())
    return;
  IO.reserve(MaxCount);
  WatchBuf.assign(WatchSlots.size() * static_cast<size_t>(IO.capacity()), 0);
}

void VmExecutor::setWatchSlots(std::vector<int> Slots) {
  WatchSlots = std::move(Slots);
  WatchBuf.assign(WatchSlots.size() * static_cast<size_t>(IO.capacity()), 0);
}

void VmExecutor::stepN(Environment &Env, unsigned Start, unsigned Count) {
  if (Env.identity() != Bind.Identity)
    bind(Env);
  stepLane(Env, Bind, StateSlots.data(), Start, Count);
}

void VmExecutor::stepLane(Environment &Env, const BoundEnv &B, Slot *State,
                          unsigned Start, unsigned Count) {
  if (Count == 0)
    return;
  reserveBatch(Count);
  IO.prefetch(Env, B, Start, Count);

  const size_t Cap = IO.capacity();
  const size_t NumOut = CS.Outputs.size();
  // Write marks only the outputs an instant produces.
  std::fill_n(IO.OutPresent.begin(), Count * NumOut, 0);
  for (unsigned I = 0; I < Count; ++I) {
    execInstant(IO.Ticks.data() + I, IO.Ins.data() + I, Cap,
                IO.OutPresent.data() + I * NumOut,
                IO.Outs.data() + I * NumOut, State);
    for (size_t W = 0; W < WatchSlots.size(); ++W)
      WatchBuf[W * Cap + I] =
          WatchSlots[W] >= 0 ? ClockSlots[WatchSlots[W]] : 0;
  }

  IO.flush(Env, B, Start, Count);
}

void VmExecutor::runBatched(Environment &Env, unsigned Count,
                            unsigned BatchSize) {
  if (BatchSize == 0)
    BatchSize = 1;
  for (unsigned Start = 0; Start < Count; Start += BatchSize)
    stepN(Env, Start, std::min(BatchSize, Count - Start));
}
