//===--- Envs.h - Environments the workloads drive --------------*- C++-*-===//
///
/// \file
/// TimedEnvironment forwards every call to an inner environment and,
/// when tracing, puts each bulk exchange in its own span — that is how
/// the `env` layer (the Environment boundary inside src/interp) is
/// measured from outside. DigestEnvironment is a RandomEnvironment that
/// folds outputs into an order-independent per-instant digest instead
/// of storing them, so long fleet runs can be compared across engines
/// without keeping their outputs.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ENVS_H
#define PERFBENCH_ENVS_H

#include "Common.h"

#include "interp/Environment.h"

namespace perfbench {

/// Forwards to \p Inner; bulk calls are spans "env.ticks", "env.inputs"
/// and "io.encode" (the replay environment encodes outputs into the
/// response trace inside exchangeOutputs).
class TimedEnvironment : public sigc::Environment {
public:
  using Environment::clockTick;
  using Environment::inputValue;
  using Environment::writeOutput;

  explicit TimedEnvironment(sigc::Environment &Inner) : Inner(Inner) {}

  sigc::EnvClockId resolveClock(std::string_view Name) override {
    return Inner.resolveClock(Name);
  }
  sigc::EnvInputId resolveInput(std::string_view Name,
                                sigc::TypeKind Type) override {
    return Inner.resolveInput(Name, Type);
  }
  sigc::EnvOutputId resolveOutput(std::string_view Name,
                                  sigc::TypeKind Type) override {
    return Inner.resolveOutput(Name, Type);
  }
  bool clockTick(sigc::EnvClockId Clock, unsigned Instant) override {
    return Inner.clockTick(Clock, Instant);
  }
  sigc::Value inputValue(sigc::EnvInputId Input, unsigned Instant) override {
    return Inner.inputValue(Input, Instant);
  }
  void writeOutput(sigc::EnvOutputId Output, unsigned Instant,
                   const sigc::Value &V) override {
    Inner.writeOutput(Output, Instant, V);
  }
  void clockTicks(sigc::EnvClockId Clock, unsigned Start, unsigned Count,
                  unsigned char *Out) override {
    Span S("env.ticks");
    Inner.clockTicks(Clock, Start, Count, Out);
  }
  void inputValues(sigc::EnvInputId Input, unsigned Start, unsigned Count,
                   sigc::Value *Out) override {
    Span S("env.inputs");
    Inner.inputValues(Input, Start, Count, Out);
  }
  void exchangeOutputs(unsigned Start, unsigned Count, unsigned NumOutputs,
                       const sigc::EnvOutputId *Ids,
                       const unsigned char *Present,
                       const sigc::Value *Vals) override {
    Span S("io.encode");
    Inner.exchangeOutputs(Start, Count, NumOutputs, Ids, Present, Vals);
  }

private:
  sigc::Environment &Inner;
};

/// Random stimulus; outputs are digested, not stored. The digest is a
/// sum of per-event hashes keyed by output name, so it is independent of
/// binding order and of the order outputs are written within an instant
/// (the reference interpreter and the step executors differ in both).
class DigestEnvironment : public sigc::RandomEnvironment {
public:
  using RandomEnvironment::RandomEnvironment;

  sigc::EnvOutputId resolveOutput(std::string_view Name,
                                  sigc::TypeKind Type) override;
  void writeOutput(sigc::EnvOutputId Output, unsigned Instant,
                   const sigc::Value &V) override;

  uint64_t digest() const { return Digest; }
  uint64_t events() const { return Events; }
  void clearDigest() {
    Digest = 0;
    Events = 0;
  }

private:
  std::vector<uint64_t> NameHash; ///< Indexed by EnvOutputId.
  uint64_t Digest = 0;
  uint64_t Events = 0;
};

} // namespace perfbench

#endif // PERFBENCH_ENVS_H
