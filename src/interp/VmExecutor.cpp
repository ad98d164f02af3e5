//===--- VmExecutor.cpp ---------------------------------------------------===//
//
// The interpreter loop exists twice over one set of op bodies (the
// SIGC_VM_OPS X-macro): a portable switch dispatcher and a
// direct-threaded computed-goto dispatcher (GNU labels-as-values). The
// threaded loop replaces the switch's single shared indirect branch with
// one `goto *` per op body, so the predictor learns each opcode's actual
// successor distribution — the classic direct-threading win, which
// matters here because fleets and cache-miss tiers keep this loop hot.
// Both dispatchers execute identical semantics and counters; bench_tier
// measures them against each other.
//
//===----------------------------------------------------------------------===//

#include "interp/VmExecutor.h"

#include "sema/Kernel.h"

#include <algorithm>
#include <cassert>

#if !defined(SIGC_VM_NO_COMPUTED_GOTO) && \
    (defined(__GNUC__) || defined(__clang__))
#define SIGC_VM_COMPUTED_GOTO 1
#else
#define SIGC_VM_COMPUTED_GOTO 0
#endif

using namespace sigc;

namespace {

/// Unbatched port: every query crosses the environment boundary.
struct DirectPort {
  Environment &Env;
  const StepBindings &Bind;
  bool tick(int32_t Desc, unsigned Instant) {
    return Env.clockTick(Bind.Clocks[Desc], Instant);
  }
  const Value input(int32_t Desc, unsigned Instant) {
    return Env.inputValue(Bind.Inputs[Desc], Instant);
  }
  void output(int32_t Desc, unsigned Instant, const Value &V) {
    Env.writeOutput(Bind.Outputs[Desc], Instant, V);
  }
};

/// Batched port: ticks and inputs come out of the prefetched buffers,
/// outputs land in the flush buffers; no environment crossing at all.
struct BatchPort {
  const unsigned char *Ticks; ///< [desc * Cap + I]
  const Value *Ins;           ///< [desc * Cap + I]
  unsigned Cap = 0;
  unsigned I = 0; ///< Batch-relative instant.
  unsigned char *OutPresent;  ///< [I * NumOut + flush pos]
  Value *OutVals;
  const int32_t *FlushPos; ///< Output desc -> flush position.
  unsigned NumOut = 0;

  bool tick(int32_t Desc, unsigned) {
    return Ticks[static_cast<size_t>(Desc) * Cap + I] != 0;
  }
  const Value &input(int32_t Desc, unsigned) {
    return Ins[static_cast<size_t>(Desc) * Cap + I];
  }
  void output(int32_t Desc, unsigned, const Value &V) {
    size_t At = static_cast<size_t>(I) * NumOut + FlushPos[Desc];
    OutPresent[At] = 1;
    OutVals[At] = V;
  }
};

} // namespace

bool VmExecutor::computedGotoAvailable() {
  return SIGC_VM_COMPUTED_GOTO != 0;
}

void VmExecutor::setDispatch(VmDispatch D) {
  UseGoto = D == VmDispatch::Goto && computedGotoAvailable();
}

void VmExecutor::reset() {
  ClockSlots.assign(CS.NumClockSlots, 0);
  // Scratch slots for interior expression results live after the values.
  ValueSlots.assign(CS.NumValueSlots + CS.NumTempSlots, Value());
  StateSlots = CS.StateInit;
}

void VmExecutor::setStateSlots(const std::vector<Value> &S) {
  assert(S.size() == StateSlots.size() &&
         "state snapshot does not match the compiled step");
  StateSlots = S;
}

BoundEnv sigc::bindEnv(Environment &Env, const CompiledStep &CS) {
  BoundEnv B;
  B.Ids = resolveBindings(Env, CS.ClockInputs, CS.Inputs, CS.Outputs);
  B.Identity = Env.identity();
  // Batch-flush positions are the code order of the WriteOutput
  // instructions; each maps to the environment id just bound.
  B.FlushIds.reserve(CS.OutputFlushOrder.size());
  for (int32_t Desc : CS.OutputFlushOrder)
    B.FlushIds.push_back(B.Ids.Outputs[Desc]);
  return B;
}

VmExecutor::VmExecutor(const CompiledStep &CS) : CS(CS) {
  FlushPos.assign(CS.Outputs.size(), 0);
  for (size_t Pos = 0; Pos < CS.OutputFlushOrder.size(); ++Pos)
    FlushPos[CS.OutputFlushOrder[Pos]] = static_cast<int32_t>(Pos);
  reset();
}

void VmExecutor::bind(Environment &Env) { Bind = bindEnv(Env, CS); }

//===--- The op bodies, shared by both dispatchers ------------------------===//
//
// X(Name, Body...) per opcode, listed in VmOp declaration order (the
// computed-goto table is built positionally from this list). SkipIfAbsent
// is not in the list: it is the one op that moves the PC non-linearly and
// bumps GuardTests instead of Executed, so each dispatcher hand-rolls it.
// Bodies may contain commas — the macro is variadic.

#define SIGC_VM_OPS(X)                                                         \
  X(ReadClockInput, Clock[In.Target] = P.tick(In.Aux, Instant) ? 1 : 0;)       \
  X(EvalClockLiteral, bool V = Vals[In.A].asBool();                            \
    Clock[In.Target] = (V == (In.Aux != 0)) ? 1 : 0;)                          \
  X(EvalClockAnd, Clock[In.Target] = Clock[In.A] & Clock[In.B];)               \
  X(EvalClockOr, Clock[In.Target] = Clock[In.A] | Clock[In.B];)                \
  X(EvalClockDiff,                                                             \
    Clock[In.Target] = static_cast<char>(Clock[In.A] & (Clock[In.B] ^ 1));)    \
  X(CopyClock, Clock[In.Target] = Clock[In.A];)                                \
  X(SetClockFalse, Clock[In.Target] = 0;)                                      \
  X(ReadSignal, Vals[In.Target] = P.input(In.Aux, Instant);)                   \
  X(UnarySlot, Vals[In.Target] =                                               \
        evalUnaryValue(static_cast<UnaryOp>(In.Aux), Vals[In.A]);)             \
  X(BinarySS, Vals[In.Target] = evalBinaryValue(static_cast<BinaryOp>(In.Aux), \
                                                Vals[In.A], Vals[In.B]);)      \
  X(BinarySC, Vals[In.Target] = evalBinaryValue(static_cast<BinaryOp>(In.Aux), \
                                                Vals[In.A], Consts[In.B]);)    \
  X(BinaryCS, Vals[In.Target] = evalBinaryValue(static_cast<BinaryOp>(In.Aux), \
                                                Consts[In.A], Vals[In.B]);)    \
  X(CopyValue, Vals[In.Target] = Vals[In.A];)                                  \
  X(LoadConst, Vals[In.Target] = Consts[In.Aux];)                              \
  X(Select, Vals[In.Target] = Clock[In.Aux] ? Vals[In.A] : Vals[In.B];)        \
  X(LoadDelay, Vals[In.Target] = State[In.A];)                                 \
  X(StoreDelay, State[In.Target] = Vals[In.A];)                                \
  X(WriteOutput, P.output(In.Aux, Instant, Vals[In.A]);)

template <typename Port>
void VmExecutor::execInstantSwitch(Port &P, Value *State, unsigned Instant) {
  // Presence is recomputed from scratch each instant.
  std::fill(ClockSlots.begin(), ClockSlots.end(), 0);

  const VmInstr *Code = CS.Code.data();
  const int32_t End = static_cast<int32_t>(CS.Code.size());
  char *Clock = ClockSlots.data();
  Value *Vals = ValueSlots.data();
  const Value *Consts = CS.Consts.data();

  int32_t PC = 0;
  while (PC < End) {
    const VmInstr &In = Code[PC];
    if (In.Op == VmOp::SkipIfAbsent) {
      ++GuardTests;
      PC = Clock[In.A] ? PC + 1 : In.Aux;
      continue;
    }
    ++PC;
    Executed += In.Weight;
    switch (In.Op) {
    case VmOp::SkipIfAbsent:
      break; // handled above
#define SIGC_VM_CASE(Name, ...)                                                \
  case VmOp::Name: {                                                           \
    __VA_ARGS__                                                                \
    break;                                                                     \
  }
      SIGC_VM_OPS(SIGC_VM_CASE)
#undef SIGC_VM_CASE
    }
  }
}

template <typename Port>
void VmExecutor::execInstantGoto(Port &P, Value *State, unsigned Instant) {
#if SIGC_VM_COMPUTED_GOTO
  // Presence is recomputed from scratch each instant.
  std::fill(ClockSlots.begin(), ClockSlots.end(), 0);

  const VmInstr *Code = CS.Code.data();
  const int32_t End = static_cast<int32_t>(CS.Code.size());
  char *Clock = ClockSlots.data();
  Value *Vals = ValueSlots.data();
  const Value *Consts = CS.Consts.data();

  // Positional dispatch table: one label per VmOp, in declaration order.
#define SIGC_VM_TABLE_ENTRY(Name, ...) &&L_##Name,
  static const void *const Table[] = {&&L_SkipIfAbsent,
                                      SIGC_VM_OPS(SIGC_VM_TABLE_ENTRY)};
#undef SIGC_VM_TABLE_ENTRY

  int32_t PC = 0;
#define SIGC_VM_DISPATCH()                                                     \
  do {                                                                         \
    if (PC >= End)                                                             \
      return;                                                                  \
    goto *Table[static_cast<uint8_t>(Code[PC].Op)];                            \
  } while (0)

  SIGC_VM_DISPATCH();

L_SkipIfAbsent: {
  const VmInstr &In = Code[PC];
  ++GuardTests;
  PC = Clock[In.A] ? PC + 1 : In.Aux;
  SIGC_VM_DISPATCH();
}

#define SIGC_VM_LABEL(Name, ...)                                               \
  L_##Name: {                                                                  \
    const VmInstr &In = Code[PC];                                              \
    ++PC;                                                                      \
    Executed += In.Weight;                                                     \
    __VA_ARGS__                                                                \
    SIGC_VM_DISPATCH();                                                        \
  }
  SIGC_VM_OPS(SIGC_VM_LABEL)
#undef SIGC_VM_LABEL
#undef SIGC_VM_DISPATCH
#else
  execInstantSwitch(P, State, Instant);
#endif
}

template <typename Port>
void VmExecutor::execInstant(Port &P, Value *State, unsigned Instant) {
  if (UseGoto)
    execInstantGoto(P, State, Instant);
  else
    execInstantSwitch(P, State, Instant);
}

void VmExecutor::step(Environment &Env, unsigned Instant) {
  if (Env.identity() != Bind.Identity)
    bind(Env);
  DirectPort P{Env, Bind.Ids};
  execInstant(P, StateSlots.data(), Instant);
}

void VmExecutor::reserveBatch(unsigned MaxCount) {
  if (MaxCount <= BatchCap)
    return;
  BatchCap = MaxCount;
  TickBuf.assign(CS.ClockInputs.size() * static_cast<size_t>(BatchCap), 0);
  InBuf.assign(CS.Inputs.size() * static_cast<size_t>(BatchCap), Value());
  OutPresent.assign(static_cast<size_t>(BatchCap) * CS.Outputs.size(), 0);
  OutVals.assign(static_cast<size_t>(BatchCap) * CS.Outputs.size(), Value());
  WatchBuf.assign(WatchSlots.size() * static_cast<size_t>(BatchCap), 0);
}

void VmExecutor::setWatchSlots(std::vector<int> Slots) {
  WatchSlots = std::move(Slots);
  WatchBuf.assign(WatchSlots.size() * static_cast<size_t>(BatchCap), 0);
}

void VmExecutor::stepN(Environment &Env, unsigned Start, unsigned Count) {
  if (Env.identity() != Bind.Identity)
    bind(Env);
  stepLane(Env, Bind, StateSlots.data(), Start, Count);
}

void VmExecutor::stepLane(Environment &Env, const BoundEnv &B, Value *State,
                          unsigned Start, unsigned Count) {
  if (Count == 0)
    return;
  reserveBatch(Count);

  const unsigned NumOut = static_cast<unsigned>(CS.Outputs.size());

  // One boundary crossing per descriptor: prefetch the whole window.
  for (size_t D = 0; D < CS.ClockInputs.size(); ++D)
    Env.clockTicks(B.Ids.Clocks[D], Start, Count, &TickBuf[D * BatchCap]);
  for (size_t D = 0; D < CS.Inputs.size(); ++D)
    Env.inputValues(B.Ids.Inputs[D], Start, Count, &InBuf[D * BatchCap]);
  std::fill(OutPresent.begin(),
            OutPresent.begin() + static_cast<size_t>(Count) * NumOut, 0);

  BatchPort P;
  P.Ticks = TickBuf.data();
  P.Ins = InBuf.data();
  P.Cap = BatchCap;
  P.OutPresent = OutPresent.data();
  P.OutVals = OutVals.data();
  P.FlushPos = FlushPos.data();
  P.NumOut = NumOut;

  for (unsigned I = 0; I < Count; ++I) {
    P.I = I;
    execInstant(P, State, Start + I);
    for (size_t W = 0; W < WatchSlots.size(); ++W)
      WatchBuf[W * BatchCap + I] =
          WatchSlots[W] >= 0 ? ClockSlots[WatchSlots[W]] : 0;
  }

  // One crossing back: flush the batch's outputs in unbatched order.
  Env.exchangeOutputs(Start, Count, NumOut, B.FlushIds.data(),
                      OutPresent.data(), OutVals.data());
}

void VmExecutor::run(Environment &Env, unsigned Count) {
  for (unsigned I = 0; I < Count; ++I)
    step(Env, I);
}

void VmExecutor::runBatched(Environment &Env, unsigned Count,
                            unsigned BatchSize) {
  if (BatchSize == 0)
    BatchSize = 1;
  for (unsigned Start = 0; Start < Count; Start += BatchSize)
    stepN(Env, Start, std::min(BatchSize, Count - Start));
}
