//===--- StepKinds.cpp ----------------------------------------------------===//

#include "interp/StepKinds.h"

#include <cassert>

using namespace sigc;

std::vector<Slot> sigc::initialState(const CompiledStep &CS) {
  std::vector<Slot> S;
  S.reserve(CS.StateInit.size());
  for (const Value &V : CS.StateInit)
    S.push_back(toSlot(V, V.Kind));
  return S;
}

TypeKind sigc::binaryResultKind(BinaryOp Op, TypeKind L, TypeKind R) {
  bool BothInt = L == TypeKind::Integer && R == TypeKind::Integer;
  switch (Op) {
  case BinaryOp::Add:
  case BinaryOp::Sub:
  case BinaryOp::Mul:
  case BinaryOp::Div:
    return BothInt ? TypeKind::Integer : TypeKind::Real;
  case BinaryOp::Mod:
    return TypeKind::Integer;
  case BinaryOp::And:
  case BinaryOp::Or:
  case BinaryOp::Xor:
  case BinaryOp::Eq:
  case BinaryOp::Ne:
  case BinaryOp::Lt:
  case BinaryOp::Le:
  case BinaryOp::Gt:
  case BinaryOp::Ge:
    return TypeKind::Boolean;
  }
  return TypeKind::Unknown;
}

TypeKind sigc::unaryResultKind(UnaryOp Op, TypeKind A) {
  if (Op == UnaryOp::Not)
    return TypeKind::Boolean;
  return A == TypeKind::Integer ? TypeKind::Integer : TypeKind::Real;
}

StepKinds sigc::computeStepKinds(const CompiledStep &CS) {
  const size_t NumSlots = CS.NumValueSlots + CS.NumTempSlots;
  StepKinds K;
  K.Instr.assign(CS.Code.size(), InstrKinds());
  K.SlotKinds.assign(NumSlots, 0u);

  // The kind each slot currently holds, evolving down the linear stream.
  // Guards only skip code; they never change which instruction defines a
  // slot's kind, so the linear walk sees the same kinds any execution
  // does (a read whose defining write was skipped is never executed —
  // the schedule guarantees it).
  std::vector<TypeKind> Cur(NumSlots, TypeKind::Unknown);
  auto declared = [&](int32_t Slot) {
    if (static_cast<size_t>(Slot) < CS.ValueSlotType.size())
      return CS.ValueSlotType[Slot];
    return TypeKind::Integer; // scratch slots default before first write
  };
  auto touch = [&](int32_t Slot, TypeKind T) {
    K.SlotKinds[Slot] |= 1u << static_cast<unsigned>(T);
  };
  // A signal's value slot holds its declared type: sema's implicit
  // conversions (integer to real, event to boolean) apply where the
  // signal is written. IK.Res is the kind the target holds; Widen marks
  // an integer result stored widened.
  auto write = [&](InstrKinds &IK, int32_t Slot, TypeKind T) {
    TypeKind Held = T;
    if (static_cast<size_t>(Slot) < CS.ValueSlotType.size() &&
        CS.ValueSlotType[Slot] != TypeKind::Unknown)
      Held = CS.ValueSlotType[Slot];
    [[maybe_unused]] auto boolish = [](TypeKind K) {
      return K == TypeKind::Boolean || K == TypeKind::Event;
    };
    assert((Held == T || (isRealSlot(Held) && T == TypeKind::Integer) ||
            (boolish(Held) && boolish(T))) &&
           "a signal written in a kind sema does not convert");
    IK.Res = Held;
    IK.Widen = isRealSlot(Held) && T == TypeKind::Integer;
    Cur[Slot] = Held;
    touch(Slot, Held);
  };
  auto read = [&](int32_t Slot) {
    TypeKind T = Cur[Slot] == TypeKind::Unknown ? declared(Slot) : Cur[Slot];
    touch(Slot, T);
    return T;
  };

  for (size_t PC = 0; PC < CS.Code.size(); ++PC) {
    const VmInstr &In = CS.Code[PC];
    InstrKinds &IK = K.Instr[PC];
    switch (In.Op) {
    case VmOp::SkipIfAbsent:
    case VmOp::ReadClockInput:
    case VmOp::EvalClockAnd:
    case VmOp::EvalClockOr:
    case VmOp::EvalClockDiff:
    case VmOp::CopyClock:
    case VmOp::SetClockFalse:
      break;
    case VmOp::EvalClockLiteral:
      IK.A = read(In.A);
      break;
    case VmOp::ReadSignal:
      write(IK, In.Target, CS.Inputs[In.Aux].Type);
      break;
    case VmOp::UnarySlot:
      IK.A = read(In.A);
      write(IK, In.Target,
            unaryResultKind(static_cast<UnaryOp>(In.Aux), IK.A));
      break;
    case VmOp::BinarySS:
    case VmOp::BinarySC:
    case VmOp::BinaryCS:
      IK.A = In.Op == VmOp::BinaryCS ? CS.Consts[In.A].Kind : read(In.A);
      IK.B = In.Op == VmOp::BinarySC ? CS.Consts[In.B].Kind : read(In.B);
      write(IK, In.Target,
            binaryResultKind(static_cast<BinaryOp>(In.Aux), IK.A, IK.B));
      break;
    case VmOp::CopyValue:
      IK.A = read(In.A);
      write(IK, In.Target, IK.A);
      break;
    case VmOp::LoadConst:
      write(IK, In.Target, CS.Consts[In.Aux].Kind);
      break;
    case VmOp::Select:
      IK.A = read(In.A);
      IK.B = read(In.B);
      // Sema admits arms of different kinds only as an integer against a
      // real, or an event against a boolean. The default takes the join
      // (real, or boolean: an event is an always-true boolean), which
      // the narrower arm converts to.
      write(IK, In.Target,
            IK.A == IK.B                             ? IK.A
            : isRealSlot(IK.A) || isRealSlot(IK.B) ? TypeKind::Real
                                                     : TypeKind::Boolean);
      break;
    case VmOp::LoadDelay:
      write(IK, In.Target, CS.StateInit[In.A].Kind);
      break;
    case VmOp::StoreDelay:
      IK.A = read(In.A);
      break;
    case VmOp::WriteOutput:
      IK.A = read(In.A);
      break;
    }
  }
  return K;
}
