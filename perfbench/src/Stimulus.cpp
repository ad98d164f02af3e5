//===--- Stimulus.cpp -----------------------------------------------------===//

#include "Stimulus.h"

#include "Envs.h"
#include "Workloads.h"

#include "interp/KernelInterp.h"
#include "io/TraceEnvironment.h"

using namespace perfbench;
using namespace sigc;

std::vector<uint8_t> perfbench::recordStimulus(const CompiledStep &CS,
                                               const std::string &ProcName,
                                               uint64_t Seed,
                                               unsigned Permille,
                                               unsigned Instants,
                                               unsigned Frame) {
  MemorySink Sink;
  {
    TraceWriter W(Sink, TraceSpec::fromStep(CS, ProcName, Frame));
    DigestEnvironment Rnd(Seed, Permille);
    RecordingEnvironment Env(Rnd, W);
    VmExecutor X(CS);
    X.runBatched(Env, Instants, Frame);
    W.finish(Instants);
  }
  return Sink.takeBytes();
}

namespace {

void resetExec(VmExecutor &X) {
  X.reset();
  X.resetCounters();
}
void resetExec(NativeExecutor &X) { X.reset(); }

/// The replay loop `signalc --replay` runs, one frame per batch, with
/// the outputs echoed into an in-memory outputs-only trace (the shape of
/// a `signalc --serve` response).
template <typename Exec>
ReplayOut replayWith(Exec &X, const char *StepSpan,
                     const std::vector<uint8_t> &Stimulus, unsigned Limit,
                     bool Verify) {
  ReplayOut Out;
  MemoryTraceSource Src(Stimulus);
  TraceReader Reader(Src);
  {
    Span S("io.decode");
    if (!Reader.readHeader()) {
      Out.Error = Reader.error().str();
      return Out;
    }
  }
  TraceEnvironment Env(Reader);
  Env.setVerifyOutputs(Verify);
  MemorySink Sink;
  TraceWriter Echo(Sink, Reader.spec().outputsOnly());
  Env.setEcho(&Echo);
  TimedEnvironment Timed(Env);
  Environment &E = Tracer::get().enabled() ? static_cast<Environment &>(Timed)
                                           : static_cast<Environment &>(Env);
  resetExec(X);
  unsigned Frame = Reader.spec().FrameInstants;
  unsigned At = 0;
  for (;;) {
    unsigned Want = Frame;
    if (Limit)
      Want = std::min(Want, Limit - At);
    if (!Want)
      break;
    unsigned N;
    {
      Span S("io.decode");
      N = Env.prepare(At, Want);
    }
    if (!N)
      break;
    {
      Span S(StepSpan);
      X.stepN(E, At, N);
    }
    At += N;
  }
  {
    Span S("io.flush");
    Echo.finish(At);
  }
  Out.Instants = At;
  Out.Bytes = Sink.takeBytes();
  Out.Guards = X.guardTests();
  Out.Executed = X.executed();
  if (Env.failed())
    Out.Error = Env.error().str();
  else if (!Env.divergence().empty())
    Out.Error = "diverged from the recording: " + Env.divergence();
  else if (!Echo.ok())
    Out.Error = "output encoding failed";
  Out.Ok = Out.Error.empty();
  return Out;
}

} // namespace

ReplayOut perfbench::replayVm(VmExecutor &X,
                              const std::vector<uint8_t> &Stimulus,
                              unsigned Limit, bool Verify) {
  return replayWith(X, "interp.step", Stimulus, Limit, Verify);
}

ReplayOut perfbench::replayNative(NativeExecutor &X,
                                  const std::vector<uint8_t> &Stimulus) {
  return replayWith(X, "native.step", Stimulus, 0, false);
}

ReplayOut perfbench::replayReference(Compilation &C,
                                     const std::vector<uint8_t> &Stimulus,
                                     unsigned Limit) {
  ReplayOut Out;
  MemoryTraceSource Src(Stimulus);
  TraceReader Reader(Src);
  if (!Reader.readHeader()) {
    Out.Error = Reader.error().str();
    return Out;
  }
  TraceEnvironment Env(Reader);
  MemorySink Sink;
  TraceWriter Echo(Sink, Reader.spec().outputsOnly());
  Env.setEcho(&Echo);
  KernelInterp Ref(*C.Kernel, C.Clocks, *C.Forest, C.names());
  unsigned At = 0;
  while (At < Limit) {
    unsigned N = Env.prepare(At, std::min(Reader.spec().FrameInstants,
                                          Limit - At));
    if (!N)
      break;
    for (unsigned I = 0; I < N; ++I)
      if (!Ref.step(Env, At + I)) {
        Out.Error = "reference interpreter stuck at instant " +
                    std::to_string(At + I);
        return Out;
      }
    At += N;
  }
  Echo.finish(At);
  Out.Instants = At;
  Out.Bytes = Sink.takeBytes();
  if (Env.failed())
    Out.Error = Env.error().str();
  Out.Ok = Out.Error.empty();
  return Out;
}

void perfbench::reportReplayLayers(Result &R, uint64_t VmInstants,
                                   uint64_t NativeInstants, uint64_t IoBytes) {
  const Tracer &T = Tracer::get();
  uint64_t All = VmInstants + NativeInstants;
  auto NsPer = [](double Ms, uint64_t N) { return N ? Ms * 1e6 / N : 0.0; };
  R.metric("interp.step_ns_per_instant",
           NsPer(T.selfMs("interp.step"), VmInstants), "ns");
  R.metric("native.step_ns_per_instant",
           NsPer(T.selfMs("native.step"), NativeInstants), "ns");
  R.metric("env.exchange_ns_per_instant",
           NsPer(T.totalMs("env.ticks") + T.totalMs("env.inputs") +
                     T.totalMs("io.encode"),
                 All),
           "ns");
  R.metric("io.encode_ns_per_instant",
           NsPer(T.totalMs("io.encode") + T.totalMs("io.flush"), All), "ns");
  R.metric("io.decode_ns_per_instant", NsPer(T.totalMs("io.decode"), All),
           "ns");
  R.metric("io.bytes_per_instant", All ? double(IoBytes) / All : 0, "bytes");
}
