//===--- Fleet.cpp - The fleet workload -----------------------------------===//
///
/// \file
/// 64 instances each of FIG5_ALARM and CHRONO, every instance with its
/// own stimulus seed so lanes diverge, run through FleetExecutor:
///
///   * scalar    — the baseline: the same instances as sequential scalar
///                 VmExecutors on one thread;
///   * t1, tN    — VM lanes on one thread and sharded over nproc threads
///                 (at most 4);
///   * native-t1, native-tN — the emitted step_fleet, the same way.
///
/// The lane block is 16, so 64 instances form nproc = 4 blocks and the
/// sharding actually runs on four threads (the default block of 64 would
/// put all 64 instances in one shard).
///
//===----------------------------------------------------------------------===//

#include "Envs.h"
#include "Phases.h"
#include "Workloads.h"

#include "interp/FleetExecutor.h"
#include "interp/KernelInterp.h"
#include "interp/VmExecutor.h"

#include <algorithm>
#include <memory>
#include <thread>

using namespace perfbench;
using namespace sigc;

namespace {

struct ProgramSpec {
  const char *Name;
  unsigned Instants; ///< Per instance per leg.
};
/// Short legs, so that a pass over every leg of both programs takes
/// under a second and each leg is sampled all through the run.
const ProgramSpec Programs[] = {{"FIG5_ALARM", 4096}, {"CHRONO", 1024}};
/// Instants per FleetExecutor::stepN window (`--batch 1024`). Every
/// window starts and joins the shard threads; at 64-instant windows that
/// handshake, and how promptly a busy host schedules four threads for
/// it, made up much of a native window and most of its variation.
constexpr unsigned Window = 1024;
constexpr unsigned Instances = 64;
constexpr unsigned LaneBlock = 16;
constexpr unsigned TickPermille = 800;
/// Instants and instances of the check against the reference interpreter.
constexpr unsigned CheckInstants = 256;
constexpr unsigned CheckInstances = 4;

enum Leg { Scalar, T1, TN, NativeT1, NativeTN, NumLegs };
const char *const LegNames[NumLegs] = {"scalar", "t1", "tN", "native-t1",
                                       "native-tN"};

unsigned fleetThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return std::max(1u, std::min(N ? N : 1u, 4u));
}

struct FleetProgram {
  std::unique_ptr<Compilation> C;
  NativeStart Native;
  std::vector<std::unique_ptr<DigestEnvironment>> Owned;
  std::vector<Environment *> Envs;
  std::vector<uint64_t> Digests; ///< Per instance, from the scalar check.
  uint64_t Guards = 0, Executed = 0;
  /// Per leg, every measured window (Window instants of all instances;
  /// on the scalar leg, Window instants of one instance), scaled to the
  /// reference host speed. Rates come from their median.
  std::vector<double> WindowMs[NumLegs];
};

struct State {
  std::unique_ptr<PrivateDir> Cache;
  std::vector<FleetProgram> Progs;
  NativeTotals NativeTot;
};

void setUp(State &S, const Args &A, Result &R, CompileCounts &Counts) {
  S = State();
  Counts = CompileCounts();
  S.Cache = std::make_unique<PrivateDir>("cache");
  for (size_t P = 0; P < std::size(Programs); ++P) {
    Tracer::get().setGroup(Programs[P].Name);
    FleetProgram Pr;
    Pr.C = compileProgram(Programs[P].Name, builtinSource(Programs[P].Name),
                          R, &Counts);
    if (Pr.C) {
      Pr.Native = startNative(Pr.C->Compiled, S.Cache->path());
      R.check(Pr.Native.Module != nullptr,
              std::string(Programs[P].Name) + ": native build failed: " +
                  Pr.Native.Error);
      S.NativeTot.add(Pr.Native);
    }
    for (unsigned I = 0; I < Instances; ++I) {
      Pr.Owned.push_back(std::make_unique<DigestEnvironment>(
          mixSeed(A.Seed, P * 1000 + I), TickPermille));
      Pr.Envs.push_back(Pr.Owned.back().get());
    }
    S.Progs.push_back(std::move(Pr));
  }
  Tracer::get().setGroup("-");
}

/// Runs a host speed probe, then one leg over every instance, appending
/// each window's time, scaled by the probe, to \p WindowMs when set.
void runLeg(FleetProgram &Pr, const ProgramSpec &Spec, Leg L,
            std::vector<double> *WindowMs, uint64_t &Guards,
            uint64_t &Executed) {
  for (auto &E : Pr.Owned)
    E->clearDigest();
  HostSpeed::get().probe();
  const CompiledStep &CS = Pr.C->Compiled;
  if (L == Scalar) {
    Guards = Executed = 0;
    for (unsigned I = 0; I < Instances; ++I) {
      VmExecutor X(CS);
      for (unsigned At = 0; At < Spec.Instants; At += Window) {
        int64_t W0 = nowNs();
        {
          Span Sp("interp.step");
          X.stepN(*Pr.Envs[I], At, Window);
        }
        if (WindowMs)
          WindowMs->push_back(HostSpeed::get().scale(msBetween(W0, nowNs())));
      }
      Guards += X.guardTests();
      Executed += X.executed();
    }
    return;
  }
  FleetExecutor::Config Cfg;
  Cfg.LaneBlock = LaneBlock;
  Cfg.Threads = L == T1 || L == NativeT1 ? 1 : fleetThreads();
  FleetExecutor F(CS, Instances, Cfg);
  bool Native = L == NativeT1 || L == NativeTN;
  if (Native)
    F.setNative(Pr.Native.Module);
  const char *SpanName =
      Native ? "native.fleet_window" : "interp.fleet_window";
  for (unsigned At = 0; At < Spec.Instants; At += Window) {
    int64_t W0 = nowNs();
    {
      Span Sp(SpanName);
      F.stepN(Pr.Envs, At, Window);
    }
    if (WindowMs)
      WindowMs->push_back(HostSpeed::get().scale(msBetween(W0, nowNs())));
  }
  Guards = F.guardTests();
  Executed = F.executed();
}

/// Untimed checks: the scalar leg fixes every instance's digest and the
/// counter totals; its first CheckInstants equal KernelInterp's on the
/// first CheckInstances instances.
void checkReference(State &S, const Args &A, Result &R) {
  bool Was = Tracer::get().enabled();
  Tracer::get().enable(false);
  for (size_t P = 0; P < S.Progs.size(); ++P) {
    FleetProgram &Pr = S.Progs[P];
    if (!Pr.C)
      continue;
    runLeg(Pr, Programs[P], Scalar, nullptr, Pr.Guards, Pr.Executed);
    for (auto &E : Pr.Owned)
      Pr.Digests.push_back(E->digest());
    for (unsigned I = 0; I < CheckInstances; ++I) {
      uint64_t Seed = mixSeed(A.Seed, P * 1000 + I);
      DigestEnvironment RefEnv(Seed, TickPermille), VmEnv(Seed, TickPermille);
      KernelInterp Ref(*Pr.C->Kernel, Pr.C->Clocks, *Pr.C->Forest,
                       Pr.C->names());
      bool Ok = Ref.run(RefEnv, CheckInstants);
      VmExecutor X(Pr.C->Compiled);
      X.runBatched(VmEnv, CheckInstants, FrameInstants);
      R.check(Ok && RefEnv.digest() == VmEnv.digest(),
              fmt("%s instance %u: vm outputs differ from KernelInterp",
                  Programs[P].Name, I));
    }
  }
  Tracer::get().enable(Was);
}

} // namespace

Result perfbench::runFleet(const Args &A) {
  Result R;
  State S;
  CompileCounts Counts;
  double SetupS = timedSetup([&] { setUp(S, A, R, Counts); });
  checkReference(S, A, R);

  bool Traced = Tracer::get().enabled();
  std::vector<double> UntracedMs, TracedMs;
  int64_t End = nowNs() + static_cast<int64_t>(A.Seconds * 1e9);
  for (unsigned Pass = 0; nowNs() < End || Pass < 6; ++Pass) {
    // A traced run alternates untraced and traced passes: their
    // difference is the tracing overhead.
    bool TracePass = Traced && Pass % 2 == 1;
    Tracer::get().enable(TracePass);
    int64_t P0 = nowNs();
    double Probe0 = HostSpeed::get().totalMs();
    for (size_t P = 0; P < S.Progs.size(); ++P) {
      FleetProgram &Pr = S.Progs[P];
      if (!Pr.C || !Pr.Native.Module)
        continue;
      Tracer::get().setGroup(Programs[P].Name);
      for (int L = 0; L < NumLegs; ++L) {
        uint64_t G = 0, E = 0;
        runLeg(Pr, Programs[P], static_cast<Leg>(L),
               !Traced || TracePass ? &Pr.WindowMs[L] : nullptr, G, E);
        bool Same = G == Pr.Guards && E == Pr.Executed;
        for (unsigned I = 0; I < Instances; ++I)
          Same &= Pr.Owned[I]->digest() == Pr.Digests[I];
        R.check(Same, fmt("%s %s leg: outputs or counters differ from the "
                          "scalar runs",
                          Programs[P].Name, LegNames[L]));
      }
    }
    Tracer::get().setGroup("-");
    if (Traced)
      (TracePass ? TracedMs : UntracedMs)
          .push_back(msBetween(P0, nowNs()) -
                     (HostSpeed::get().totalMs() - Probe0));
  }
  Tracer::get().enable(Traced);

  std::vector<double> Rates[NumLegs], Scaling;
  R.line(fmt("%-11s %6s %12s %12s %12s %12s %12s %10s", "program", "lanes",
             "scalar", "t1", fmt("t%u", fleetThreads()).c_str(), "native-t1",
             fmt("native-t%u", fleetThreads()).c_str(), "guards/ii"));
  R.line(fmt("(instance-instants/s at the median window of %u instants, "
             "at the reference host speed)",
             Window));
  double GuardsPerII = 0;
  for (size_t P = 0; P < S.Progs.size(); ++P) {
    FleetProgram &Pr = S.Progs[P];
    double II = double(Instances) * Programs[P].Instants;
    double Rt[NumLegs];
    for (int L = 0; L < NumLegs; ++L) {
      Rt[L] = rateAt(L == Scalar ? Window : double(Instances) * Window,
                     Pr.WindowMs[L]);
      Rates[L].push_back(Rt[L]);
    }
    Scaling.push_back(Rt[TN] / Rt[T1]);
    GuardsPerII += Pr.Guards / II / S.Progs.size();
    R.line(fmt("%-11s %6u %12.0f %12.0f %12.0f %12.0f %12.0f %10.2f",
               Programs[P].Name, Instances, Rt[Scalar], Rt[T1], Rt[TN],
               Rt[NativeT1], Rt[NativeTN], Pr.Guards / II));
  }
  R.line(fmt("fleet_instants_per_s         %.0f instance-instants/s "
             "(geomean, %u threads); %.0f on 1 thread",
             geomean(Rates[TN]), fleetThreads(), geomean(Rates[T1])));
  R.line(fmt("fleet_native_instants_per_s  %.0f instance-instants/s "
             "(geomean, %u threads); %.0f on 1 thread",
             geomean(Rates[NativeTN]), fleetThreads(),
             geomean(Rates[NativeT1])));
  R.line(fmt("scaling                      %.3f x (t%u / t1, geomean; base "
             "t1 = %.0f)",
             geomean(Scaling), fleetThreads(), geomean(Rates[T1])));
  if (!Traced) {
    // The bounded figures come from the one-thread legs. On a shared
    // 4-vCPU host, four-thread windows wait for the slowest of four
    // vCPUs, and their rates moved 20-50% between runs.
    R.metric("setup_s", SetupS, "s");
    R.metric("peak_rss_mb", selfPeakRssMb(), "MB");
    R.metric("vm_rate_norm_per_s", geomean(Rates[T1]), "1/s");
    R.metric("native_rate_norm_per_s", geomean(Rates[NativeT1]), "1/s");
    return R;
  }
  R.metric("fleet.scalar_instants_per_s", geomean(Rates[Scalar]), "1/s");
  R.metric("fleet.t1_instants_per_s", geomean(Rates[T1]), "1/s");
  R.metric("fleet.scaling", geomean(Scaling), "ratio");
  R.metric("fleet.guard_tests_per_instance_instant", GuardsPerII, "count");
  reportCompileLayers(R, Counts, 1);
  reportNativeLayers(R, S.NativeTot, 1);
  reportOverhead(R, median(UntracedMs), median(TracedMs));
  return R;
}
