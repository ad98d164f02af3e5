//===--- environment_test.cpp - Environment bulk-exchange defaults --------===//
///
/// The batched executors cross the environment boundary through the bulk
/// API (clockTicks/inputValues/exchangeOutputs). An environment that
/// overrides only the per-instant virtuals must still be batchable: the
/// base-class defaults delegate per instant, preserving answers, event
/// order and recorded traces exactly. These tests pin that contract —
/// it is what lets RecordingEnvironment wrap arbitrary environments and
/// the serve loop drive any session shape.
///
//===----------------------------------------------------------------------===//

#include "interp/Environment.h"

#include <gtest/gtest.h>

using namespace sigc;

namespace {

/// Overrides only the per-instant virtuals and counts every call, so the
/// tests can see exactly how the bulk defaults delegate.
class PerInstantEnv : public Environment {
public:
  bool clockTick(EnvClockId Clock, unsigned Instant) override {
    ++TickCalls;
    // Clock 0 ticks on even instants, clock 1 on multiples of 3.
    return Clock == 0 ? Instant % 2 == 0 : Instant % 3 == 0;
  }

  Value inputValue(EnvInputId Input, unsigned Instant) override {
    ++ValueCalls;
    return Value::makeInt(static_cast<int64_t>(Input) * 1000 + Instant);
  }

  void writeOutput(EnvOutputId Output, unsigned Instant,
                   const Value &V) override {
    ++WriteCalls;
    Environment::writeOutput(Output, Instant, V); // records the event
  }

  unsigned TickCalls = 0;
  unsigned ValueCalls = 0;
  unsigned WriteCalls = 0;
};

} // namespace

TEST(EnvironmentBulk, ClockTicksDefaultDelegatesPerInstant) {
  PerInstantEnv Env;
  EnvClockId C0 = Env.resolveClock("H0");
  EnvClockId C1 = Env.resolveClock("H1");

  unsigned char Out[5] = {9, 9, 9, 9, 9};
  Env.clockTicks(C0, 4, 5, Out);
  EXPECT_EQ(Env.TickCalls, 5u);
  for (unsigned I = 0; I < 5; ++I)
    EXPECT_EQ(Out[I] != 0, (4 + I) % 2 == 0) << "instant " << 4 + I;

  Env.clockTicks(C1, 0, 5, Out);
  EXPECT_EQ(Env.TickCalls, 10u);
  for (unsigned I = 0; I < 5; ++I)
    EXPECT_EQ(Out[I] != 0, I % 3 == 0) << "instant " << I;
}

TEST(EnvironmentBulk, InputValuesDefaultDelegatesPerInstant) {
  PerInstantEnv Env;
  EnvInputId A = Env.resolveInput("A", TypeKind::Integer);
  EnvInputId B = Env.resolveInput("B", TypeKind::Integer);
  ASSERT_NE(A, B);

  Value Out[4];
  Env.inputValues(B, 7, 4, Out);
  EXPECT_EQ(Env.ValueCalls, 4u);
  for (unsigned I = 0; I < 4; ++I) {
    EXPECT_EQ(Out[I].Kind, TypeKind::Integer);
    EXPECT_EQ(Out[I].Int, static_cast<int64_t>(B) * 1000 + 7 + I)
        << "instant " << 7 + I;
  }
}

TEST(EnvironmentBulk, ExchangeOutputsDefaultReplaysPerInstantOrder) {
  // A 3-instant batch over two outputs; presence is row-major
  // [instant][output]. The default must replay through writeOutput in
  // instant-major order, each instant in the executor's column order —
  // exactly the event sequence an unbatched run records.
  PerInstantEnv Env;
  EnvOutputId Y = Env.resolveOutput("Y", TypeKind::Integer);
  EnvOutputId Z = Env.resolveOutput("Z", TypeKind::Integer);
  EnvOutputId Ids[2] = {Y, Z};

  unsigned char Present[6] = {
      1, 1, // instant 5: Y and Z
      0, 1, // instant 6: Z only
      1, 0, // instant 7: Y only
  };
  Value Vals[6] = {Value::makeInt(50), Value::makeInt(51), Value(),
                   Value::makeInt(61), Value::makeInt(70), Value()};

  Env.exchangeOutputs(5, 3, 2, Ids, Present, Vals);
  EXPECT_EQ(Env.WriteCalls, 4u) << "only present cells are delivered";

  std::vector<OutputEvent> Expected = {
      {5, "Y", Value::makeInt(50)},
      {5, "Z", Value::makeInt(51)},
      {6, "Z", Value::makeInt(61)},
      {7, "Y", Value::makeInt(70)},
  };
  EXPECT_EQ(Env.outputs(), Expected);
}

TEST(EnvironmentBulk, EmptyWindowsTouchNothing) {
  PerInstantEnv Env;
  EnvClockId C0 = Env.resolveClock("H0");
  EnvOutputId Y = Env.resolveOutput("Y", TypeKind::Integer);

  Env.clockTicks(C0, 3, 0, nullptr);
  Env.inputValues(Env.resolveInput("A", TypeKind::Integer), 3, 0, nullptr);
  Env.exchangeOutputs(3, 0, 1, &Y, nullptr, nullptr);
  EXPECT_EQ(Env.TickCalls, 0u);
  EXPECT_EQ(Env.ValueCalls, 0u);
  EXPECT_EQ(Env.WriteCalls, 0u);
  EXPECT_TRUE(Env.outputs().empty());
}

TEST(EnvironmentBulk, RandomEnvironmentBulkEqualsPerInstant) {
  // RandomEnvironment overrides the bulk paths with straight loops; they
  // must agree answer for answer with its own per-instant virtuals.
  RandomEnvironment A(42), B(42);
  EnvClockId CA = A.resolveClock("H");
  EnvClockId CB = B.resolveClock("H");
  EnvInputId IA = A.resolveInput("X", TypeKind::Integer);
  EnvInputId IB = B.resolveInput("X", TypeKind::Integer);

  unsigned char Ticks[32];
  Value Vals[32];
  A.clockTicks(CA, 10, 32, Ticks);
  A.inputValues(IA, 10, 32, Vals);
  for (unsigned I = 0; I < 32; ++I) {
    EXPECT_EQ(Ticks[I] != 0, B.clockTick(CB, 10 + I)) << "instant " << 10 + I;
    EXPECT_EQ(Vals[I], B.inputValue(IB, 10 + I)) << "instant " << 10 + I;
  }
}
