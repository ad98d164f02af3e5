//===--- Replay.cpp - The replay workload ---------------------------------===//
///
/// \file
/// Long scalar replays of seeded recorded stimulus through the VM and
/// the native tier, outputs encoded to memory. Rows are (program, root
/// clock activity, tier); the native modules are built in set-up, so the
/// compiler layers run only there. A pass replays every row once; the
/// measurement repeats passes for the run's seconds.
///
//===----------------------------------------------------------------------===//

#include "Phases.h"
#include "Stimulus.h"
#include "Workloads.h"

#include <memory>

using namespace perfbench;
using namespace sigc;

namespace {

/// Programs replayed: FIG5_ALARM is where trace I/O dominates, CHRONO a
/// mid-size program, WATCH/STOPWATCH the two where guard structure
/// (clock-clustered scheduling) should pay. Instants per stimulus keep
/// one replay of each row at 2-25 ms, so that a pass over every row
/// takes ~0.1 s and each row is sampled all through the run.
struct ProgramSpec {
  const char *Name;
  unsigned Instants;
  unsigned ReferencePrefix; ///< Instants checked against KernelInterp.
  bool Native;
};
const ProgramSpec Programs[] = {
    {"FIG5_ALARM", 65536, 65536, true},
    {"CHRONO", 16384, 4096, true},
    {"WATCH", 2048, 1024, false},
    {"STOPWATCH", 2048, 1024, false},
};
/// Dense and sparse root-clock activity (per mille of instants a free
/// clock ticks); guard skipping depends on it.
const unsigned Densities[] = {1000, 250};

struct Row {
  size_t Program = 0;
  unsigned Permille = 0;
  bool Native = false;
  size_t Stimulus = 0; ///< Index into State::Stimuli.
  /// Every measured replay of this row (reader set-up, then decode, step
  /// and encode of every frame, then the final flush), scaled to the
  /// reference host speed. The row's rate comes from their median.
  std::vector<double> ReplayMs;
  ReplayOut Expected; ///< The checked VM replay: bytes and counters.
};

struct State {
  std::vector<std::unique_ptr<Compilation>> Comps;
  std::unique_ptr<PrivateDir> Cache;
  std::vector<NativeStart> Natives; ///< Index-aligned with Comps.
  NativeTotals NativeTot;
  std::vector<std::vector<uint8_t>> Stimuli;
  std::vector<Row> Rows;
};

void setUp(State &S, const Args &A, Result &R, CompileCounts &Counts) {
  S = State();
  S.Cache = std::make_unique<PrivateDir>("cache");
  Counts = CompileCounts();
  for (size_t P = 0; P < std::size(Programs); ++P) {
    Tracer::get().setGroup(Programs[P].Name);
    S.Comps.push_back(compileProgram(Programs[P].Name,
                                     builtinSource(Programs[P].Name), R,
                                     &Counts));
    S.Natives.emplace_back();
    if (!S.Comps.back())
      continue;
    if (Programs[P].Native) {
      S.Natives.back() = startNative(S.Comps.back()->Compiled, S.Cache->path());
      R.check(S.Natives.back().Module != nullptr,
              std::string(Programs[P].Name) + ": native build failed: " +
                  S.Natives.back().Error);
      S.NativeTot.add(S.Natives.back());
    }
  }
  for (size_t P = 0; P < std::size(Programs); ++P) {
    for (unsigned D : Densities) {
      if (!S.Comps[P])
        continue;
      size_t Stim = S.Stimuli.size();
      S.Stimuli.push_back(recordStimulus(
          S.Comps[P]->Compiled, Programs[P].Name,
          mixSeed(A.Seed, P * 1000 + D), D, Programs[P].Instants));
      for (bool Native : {false, true}) {
        if (Native && !S.Natives[P].Module)
          continue;
        Row Rw;
        Rw.Program = P;
        Rw.Permille = D;
        Rw.Native = Native;
        Rw.Stimulus = Stim;
        S.Rows.push_back(std::move(Rw));
      }
    }
  }
  Tracer::get().setGroup("-");
}

/// Output checks before measuring: each stimulus replays cleanly on the
/// VM and matches its own recording, and its first ReferencePrefix
/// instants give the same output trace on KernelInterp as on the VM.
void checkReference(State &S, Result &R) {
  bool Was = Tracer::get().enabled();
  Tracer::get().enable(false);
  for (Row &Rw : S.Rows) {
    if (Rw.Native)
      continue;
    const ProgramSpec &P = Programs[Rw.Program];
    Compilation &C = *S.Comps[Rw.Program];
    const std::vector<uint8_t> &Stim = S.Stimuli[Rw.Stimulus];
    std::string Tag = fmt("%s@%u", P.Name, Rw.Permille);
    VmExecutor X(C.Compiled);
    Rw.Expected = replayVm(X, Stim, 0, /*Verify=*/true);
    R.check(Rw.Expected.Ok && Rw.Expected.Instants == P.Instants,
            Tag + ": vm replay failed: " + Rw.Expected.Error);
    ReplayOut Ref = replayReference(C, Stim, P.ReferencePrefix);
    ReplayOut Vm = replayVm(X, Stim, P.ReferencePrefix);
    R.check(Ref.Ok && Vm.Ok && Ref.Bytes == Vm.Bytes,
            Tag + ": vm outputs differ from KernelInterp " + Ref.Error);
  }
  // Native rows are checked against the VM row of the same stimulus.
  for (Row &Rw : S.Rows)
    if (Rw.Native)
      for (const Row &V : S.Rows)
        if (!V.Native && V.Stimulus == Rw.Stimulus)
          Rw.Expected = V.Expected;
  Tracer::get().enable(Was);
}

/// One pass over every row. \returns the pass's wall time in ms, host
/// speed probes left out.
double pass(State &S, Result &R, bool Record) {
  int64_t T0 = nowNs();
  double Probe0 = HostSpeed::get().totalMs();
  for (Row &Rw : S.Rows) {
    const ProgramSpec &P = Programs[Rw.Program];
    Tracer::get().setGroup(P.Name);
    const std::vector<uint8_t> &Stim = S.Stimuli[Rw.Stimulus];
    const CompiledStep &CS = S.Comps[Rw.Program]->Compiled;
    HostSpeed::get().probe();
    int64_t R0 = nowNs();
    ReplayOut Out;
    if (Rw.Native) {
      NativeExecutor X(CS, *S.Natives[Rw.Program].Module);
      Out = replayNative(X, Stim);
    } else {
      VmExecutor X(CS);
      Out = replayVm(X, Stim);
    }
    if (Record)
      Rw.ReplayMs.push_back(HostSpeed::get().scale(msBetween(R0, nowNs())));
    R.check(Out.Ok && Out.Bytes == Rw.Expected.Bytes &&
                Out.Guards == Rw.Expected.Guards &&
                Out.Executed == Rw.Expected.Executed,
            fmt("%s@%u %s: replay output or counters differ from the "
                "checked vm replay %s",
                P.Name, Rw.Permille, Rw.Native ? "native" : "vm",
                Out.Error.c_str()));
  }
  Tracer::get().setGroup("-");
  return msBetween(T0, nowNs()) - (HostSpeed::get().totalMs() - Probe0);
}

} // namespace

Result perfbench::runReplay(const Args &A) {
  Result R;
  State S;
  CompileCounts Counts;
  double SetupS = timedSetup([&] { setUp(S, A, R, Counts); });
  checkReference(S, R);

  std::vector<double> TracedPassMs, UntracedPassMs;
  bool Traced = Tracer::get().enabled();
  int64_t End = nowNs() + static_cast<int64_t>(A.Seconds * 1e9);
  for (unsigned Pass = 0; nowNs() < End || Pass < 6; ++Pass) {
    // A traced run alternates untraced and traced passes: their
    // difference is the tracing overhead. Only traced passes count there.
    bool TracePass = Traced && Pass % 2 == 1;
    Tracer::get().enable(TracePass);
    double Ms = pass(S, R, !Traced || TracePass);
    (TracePass ? TracedPassMs : UntracedPassMs).push_back(Ms);
  }
  Tracer::get().enable(Traced);

  std::vector<double> VmRates, NativeRates;
  uint64_t VmInstants = 0, NativeInstants = 0, VmGuards = 0, VmExec = 0,
           NativeGuards = 0, IoBytes = 0;
  R.line(fmt("%-11s %6s %-6s %14s %8s %12s %10s", "program", "tick", "tier",
             "instants/s", "replays", "guards/inst", "exec/inst"));
  R.line("(instants/s at the median replay time, at the reference host "
         "speed)");
  for (const Row &Rw : S.Rows) {
    const ProgramSpec &P = Programs[Rw.Program];
    double Rate = rateAt(P.Instants, Rw.ReplayMs);
    size_t Passes = Rw.ReplayMs.size();
    uint64_t Inst = uint64_t(P.Instants) * Passes;
    (Rw.Native ? NativeRates : VmRates).push_back(Rate);
    (Rw.Native ? NativeInstants : VmInstants) += Inst;
    (Rw.Native ? NativeGuards : VmGuards) += Rw.Expected.Guards * Passes;
    if (!Rw.Native)
      VmExec += Rw.Expected.Executed * Passes;
    IoBytes += (S.Stimuli[Rw.Stimulus].size() + Rw.Expected.Bytes.size()) *
               Passes;
    R.line(fmt("%-11s %6u %-6s %14.0f %8zu %12.2f %10.2f", P.Name,
               Rw.Permille, Rw.Native ? "native" : "vm", Rate, Passes,
               double(Rw.Expected.Guards) / P.Instants,
               double(Rw.Expected.Executed) / P.Instants));
  }

  if (!Traced) {
    R.metric("setup_s", SetupS, "s");
    R.metric("peak_rss_mb", selfPeakRssMb(), "MB");
    R.metric("vm_rate_norm_per_s", geomean(VmRates), "1/s");
    R.metric("native_rate_norm_per_s", geomean(NativeRates), "1/s");
    R.line(fmt("vm_instants_per_s      %.0f 1/s (geomean of %zu vm rows)",
               geomean(VmRates), VmRates.size()));
    R.line(fmt("native_instants_per_s  %.0f 1/s (geomean of %zu native rows)",
               geomean(NativeRates), NativeRates.size()));
    return R;
  }

  reportReplayLayers(R, VmInstants, NativeInstants, IoBytes);
  R.metric("interp.guard_tests_per_instant",
           VmInstants ? double(VmGuards) / VmInstants : 0, "count");
  R.metric("interp.executed_per_instant",
           VmInstants ? double(VmExec) / VmInstants : 0, "count");
  R.metric("native.guard_tests_per_instant",
           NativeInstants ? double(NativeGuards) / NativeInstants : 0,
           "count");
  reportCompileLayers(R, Counts, 1);
  reportNativeLayers(R, S.NativeTot, 1);
  reportOverhead(R, median(UntracedPassMs), median(TracedPassMs));
  return R;
}
