//===--- StepKinds.h - Static value kinds and 8-byte slots ------*- C++-*-===//
///
/// \file
/// The one typing pass over a CompiledStep, shared by the C emitter and
/// the VM, and the untyped 8-byte slot both of them (and the native tier,
/// fleet lanes and `--serve` checkpoints) store values in.
///
/// computeStepKinds() walks the linear instruction stream once and
/// assigns every value operand and result a static TypeKind: operators
/// compute in the kind evalBinaryValue/evalUnaryValue would give their
/// operands' kinds, defaults in the join of their arms' kinds, and a
/// signal's value slot holds the signal's declared type, so sema's
/// implicit conversions (integer to real, event to boolean) apply where
/// a signal is written, as in KernelInterp. Guards only skip code, so
/// the linear walk sees the kinds every execution sees. This is the
/// typing rule: the emitted C declares its locals from it and the VM
/// picks its kind-specialised opcodes from it.
///
/// A Slot holds a value in the representation its static kind implies:
/// integers in I, reals in D, booleans and events as 0/1 in I. Which
/// member is live is never stored; the code reading a slot knows it.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_INTERP_STEPKINDS_H
#define SIGNALC_INTERP_STEPKINDS_H

#include "interp/CompiledStep.h"

#include <cstdint>
#include <vector>

namespace sigc {

/// One value in a VM frame, a delay-state block or at the native ABI.
union Slot {
  int64_t I;
  double D;
};
static_assert(sizeof(Slot) == 8, "slots are 8 bytes");

/// True when a value of kind \p K lives in Slot::D.
inline bool isRealSlot(TypeKind K) { return K == TypeKind::Real; }

/// \p V in the representation of kind \p K (integers widen to real and
/// reals truncate to integer when \p V's own kind differs).
inline Slot toSlot(const Value &V, TypeKind K) {
  Slot S;
  switch (K) {
  case TypeKind::Integer:
    S.I = V.Kind == TypeKind::Real ? static_cast<int64_t>(V.Real) : V.Int;
    break;
  case TypeKind::Real:
    S.D = V.Kind == TypeKind::Integer ? static_cast<double>(V.Int) : V.Real;
    break;
  default:
    S.I = V.Bool ? 1 : 0;
    break;
  }
  return S;
}

/// The tagged Value of kind \p K that \p S holds.
inline Value toValue(Slot S, TypeKind K) {
  switch (K) {
  case TypeKind::Integer:
    return Value::makeInt(S.I);
  case TypeKind::Real:
    return Value::makeReal(S.D);
  case TypeKind::Event:
    return Value::makeEvent();
  default:
    return Value::makeBool(S.I != 0);
  }
}

/// The initial delay-state block of \p CS as slots.
std::vector<Slot> initialState(const CompiledStep &CS);

/// Result kind of \p Op on operands of kinds \p L and \p R.
TypeKind binaryResultKind(BinaryOp Op, TypeKind L, TypeKind R);
/// Result kind of \p Op on an operand of kind \p A.
TypeKind unaryResultKind(UnaryOp Op, TypeKind A);

/// The static kinds of one instruction: the kind its target holds after
/// it and the kinds of its value operands (constants included) at that
/// program point.
struct InstrKinds {
  TypeKind Res = TypeKind::Unknown;
  TypeKind A = TypeKind::Unknown;
  TypeKind B = TypeKind::Unknown;
  /// The instruction computes an integer that its target, a real
  /// signal, holds widened.
  bool Widen = false;
};

/// The result of the typing pass over one CompiledStep.
struct StepKinds {
  std::vector<InstrKinds> Instr; ///< Per instruction of CS.Code.
  /// Per value/scratch slot: bit (1 << TypeKind) for every kind the slot
  /// is read or written as. A scratch slot reused across expression
  /// trees of different types carries several.
  std::vector<unsigned> SlotKinds;
};

/// Runs the typing pass over \p CS.
StepKinds computeStepKinds(const CompiledStep &CS);

} // namespace sigc

#endif // SIGNALC_INTERP_STEPKINDS_H
