//===--- Compile.cpp - The compile workload -------------------------------===//
///
/// \file
/// Source to first instant, the way a user starts a program:
///
///   * front end: source -> CompiledStep -> first VM instant for the seven
///     Figure-13 programs plus FIG5_ALARM;
///   * link: sources of a 32-stage process chain (generateProcessChain
///     with seed 42, the chain bench/bench_link.cpp links) compiled unit
///     by unit into one fused linked CompiledStep -> first instant;
///   * cold native: source -> first native instant with an empty private
///     cache (emit C, host cc, publish, load), once per run;
///   * warm native: the same with the cache filled, which must spawn no
///     compiler.
///
/// The native legs cover the programs whose cold build is cheap today;
/// WATCH and STOPWATCH would need ~17 s and ~70 s of host cc.
///
//===----------------------------------------------------------------------===//

#include "Envs.h"
#include "Phases.h"
#include "Workloads.h"

#include "interp/KernelInterp.h"
#include "interp/LinkedExecutor.h"
#include "link/Linker.h"
#include "native/CcRunner.h"
#include "native/NativeCache.h"
#include "native/NativeExecutor.h"
#include "native/StepHash.h"
#include "testing/Oracle.h"
#include "testing/RandomProgram.h"

#include <map>
#include <memory>

using namespace perfbench;
using namespace sigc;

namespace {

const char *const FrontEndPrograms[] = {
    "FIG5_ALARM", "STOPWATCH", "WATCH",   "ALARM",
    "CHRONO",     "SUPERVISOR", "PACE_MAKER", "ROBOT"};
const char *const NativePrograms[] = {"FIG5_ALARM", "ROBOT",  "PACE_MAKER",
                                      "SUPERVISOR", "CHRONO", "ALARM"};
constexpr unsigned ChainStages = 32;
/// The chain's generator seed is fixed, not drawn from the workload seed:
/// a chain's compile time varies by ~15% from one draw to the next, and
/// about one 32-stage draw in eleven does not link at all (see
/// README.md), so the workload seed only drives the stimulus.
constexpr uint64_t ChainSeed = 42;
/// Instants of the output check against the reference interpreter.
constexpr unsigned CheckInstants = 256;
constexpr unsigned TickPermille = 800;

struct State {
  std::map<std::string, std::string> Sources;
  std::map<std::string, uint64_t> EnvSeed;
  std::vector<LinkInput> Chain;
  std::string ChainComposed;
  uint64_t ChainEnvSeed = 0;
  uint64_t ChainDigest = 0; ///< Of its first linked instant.
  std::unique_ptr<PrivateDir> Cache;
  /// Reference digests of each program's first instant and of its first
  /// CheckInstants, and the VM's counters over the latter.
  std::map<std::string, uint64_t> FirstDigest, CheckDigest;
  std::map<std::string, std::pair<uint64_t, uint64_t>> VmCounters;
};

std::unique_ptr<LinkedSystem> linkChain(const State &S, Result &R,
                                        CompileCounts *Counts) {
  LinkOptions Opts;
  // One process, at most nproc threads: the linker would otherwise start
  // a thread per unit.
  Opts.ParallelCompile = false;
  if (!Tracer::get().enabled()) {
    LinkResult LR = compileAndLinkSources(S.Chain, Opts);
    R.check(LR.Sys != nullptr, "chain: link failed: " + LR.Error);
    return std::move(LR.Sys);
  }
  std::vector<LinkUnit> Units;
  {
    Span Sp("link.compile_units");
    for (const LinkInput &In : S.Chain) {
      LinkUnit U;
      U.Comp = compileProgram(In.Name, In.Source, R, Counts);
      if (!U.Comp)
        return nullptr;
      Units.push_back(std::move(U));
    }
  }
  LinkResult LR;
  {
    Span Sp("link.link");
    LR = linkCompiled(std::move(Units), Opts);
  }
  R.check(LR.Sys != nullptr, "chain: link failed: " + LR.Error);
  return std::move(LR.Sys);
}

void setUp(State &S, const Args &A, Result &R) {
  S = State();
  uint64_t Salt = 0;
  for (const char *P : FrontEndPrograms) {
    S.Sources[P] = builtinSource(P);
    S.EnvSeed[P] = mixSeed(A.Seed, ++Salt);
  }
  RandomProgramOptions Stage;
  Stage.Equations = 96;
  Stage.IntInputs = 4;
  Stage.BoolInputs = 4;
  GeneratedChain G =
      generateProcessChain(ChainSeed, ChainStages, Stage, 2, 30);
  for (size_t K = 0; K < G.Sources.size(); ++K)
    S.Chain.push_back({G.Names[K], G.Sources[K]});
  S.ChainComposed = G.ComposedSource;
  S.ChainEnvSeed = mixSeed(A.Seed, 100);
  S.Cache = std::make_unique<PrivateDir>("cache");
  // Warm-up: one front-end pass, so allocator and page-cache effects do
  // not land on the first measured pass.
  bool Was = Tracer::get().enabled();
  Tracer::get().enable(false);
  for (const auto &[Name, Src] : S.Sources)
    compileProgram(Name, Src, R);
  linkChain(S, R, nullptr);
  Tracer::get().enable(Was);
}

template <typename Run>
uint64_t digestOf(uint64_t Seed, Run &&F) {
  DigestEnvironment E(Seed, TickPermille);
  F(E);
  return E.digest();
}

/// Untimed output checks before measuring: every program's VM outputs
/// equal KernelInterp's over CheckInstants. Records the reference digests
/// the measured starts are checked against.
void checkReference(State &S, Result &R) {
  bool Was = Tracer::get().enabled();
  Tracer::get().enable(false);
  for (const auto &[Name, Src] : S.Sources) {
    auto C = compileProgram(Name, Src, R);
    if (!C)
      continue;
    uint64_t Seed = S.EnvSeed[Name];
    KernelInterp Ref(*C->Kernel, C->Clocks, *C->Forest, C->names());
    uint64_t RefAll = digestOf(Seed, [&](Environment &E) {
      R.check(Ref.run(E, CheckInstants), Name + ": KernelInterp stuck");
    });
    S.FirstDigest[Name] = digestOf(Seed, [&](Environment &E) {
      Ref.reset();
      Ref.run(E, 1);
    });
    VmExecutor Vm(C->Compiled);
    uint64_t VmAll = digestOf(Seed, [&](Environment &E) {
      Vm.runBatched(E, CheckInstants, FrameInstants);
    });
    R.check(VmAll == RefAll, Name + ": vm outputs differ from KernelInterp");
    S.CheckDigest[Name] = RefAll;
    S.VmCounters[Name] = {Vm.guardTests(), Vm.executed()};
  }
  if (auto Sys = linkChain(S, R, nullptr)) {
    LinkedExecutor Lx(*Sys);
    S.ChainDigest =
        digestOf(S.ChainEnvSeed, [&](Environment &E) { Lx.run(E, 1); });
  }
  Tracer::get().enable(Was);
}

/// Untimed checks after measuring (the cold leg has filled the cache):
/// each native module's outputs over CheckInstants equal the reference
/// and its counters the VM's; the chain passes the linked differential
/// oracle, whose reference is KernelInterp on the monolithic composition
/// (it compiles that composition, so it runs after peak RSS is read).
void checkAfter(State &S, Result &R) {
  bool Was = Tracer::get().enabled();
  Tracer::get().enable(false);
  NativeCache Cache(S.Cache->path());
  for (const char *Name : NativePrograms) {
    auto C = compileProgram(Name, S.Sources[Name], R);
    std::string Err;
    auto M = C ? Cache.tryLoad(hashCompiledStep(C->Compiled), Err) : nullptr;
    R.check(M != nullptr, std::string(Name) + ": no cached module " + Err);
    if (!M)
      continue;
    NativeExecutor Nx(C->Compiled, *M);
    uint64_t NatAll = digestOf(S.EnvSeed[Name], [&](Environment &E) {
      Nx.runBatched(E, CheckInstants, FrameInstants);
    });
    R.check(NatAll == S.CheckDigest[Name] &&
                std::make_pair(uint64_t(Nx.guardTests()),
                               uint64_t(Nx.executed())) == S.VmCounters[Name],
            std::string(Name) +
                ": native outputs or counters differ from the vm's");
  }
  OracleOptions O;
  O.Instants = CheckInstants;
  O.EnvSeed = S.ChainEnvSeed;
  O.TickPermille = TickPermille;
  OracleReport Rep =
      checkLinkedDifferential("chain", S.Chain, S.ChainComposed, O);
  R.check(Rep.Ok, "chain: linked differential failed: " + Rep.Error);
  Tracer::get().enable(Was);
}

/// Every measured start, scaled to the reference host speed, by group:
/// "fe:<program>", "chain" and "warm:<program>".
using StartSamples = std::map<std::string, std::vector<double>>;

/// Sum over the groups starting with \p Prefix of their median start
/// time, in ms: the time of one start of each.
double startsMs(const StartSamples &Starts, const std::string &Prefix) {
  double Ms = 0;
  for (const auto &[Group, Samples] : Starts)
    if (Group.compare(0, Prefix.size(), Prefix) == 0)
      Ms += median(Samples);
  return Ms;
}

/// One start of every front-end program, of the chain and of every warm
/// native program, each after a host speed probe and recorded, scaled by
/// it, in \p Starts when set. \returns the pass's wall time in ms, the
/// probes left out.
double runPass(State &S, Result &R, StartSamples *Starts,
               CompileCounts *FrontCounts, uint64_t *FusedInstrs,
               uint64_t *WarmSpawns) {
  HostSpeed &Speed = HostSpeed::get();
  int64_t P0 = nowNs();
  double Probe0 = Speed.totalMs();
  for (const char *Name : FrontEndPrograms) {
    Tracer::get().setGroup(std::string("fe:") + Name);
    Speed.probe();
    int64_t T0 = nowNs();
    uint64_t D = 0;
    if (auto C = compileProgram(Name, S.Sources[Name], R, FrontCounts)) {
      VmExecutor X(C->Compiled);
      D = digestOf(S.EnvSeed[Name], [&](Environment &E) {
        Span Sp("interp.step");
        X.step(E, 0);
      });
    }
    double Ms = msBetween(T0, nowNs());
    R.check(D == S.FirstDigest[Name],
            std::string(Name) + ": first vm instant differs from the reference");
    if (Starts)
      (*Starts)[std::string("fe:") + Name].push_back(Speed.scale(Ms));
  }
  {
    Tracer::get().setGroup("chain");
    Speed.probe();
    int64_t T0 = nowNs();
    uint64_t D = 0;
    if (auto Sys = linkChain(S, R, nullptr)) {
      LinkedExecutor Lx(*Sys);
      D = digestOf(S.ChainEnvSeed, [&](Environment &E) {
        Span Sp("interp.step");
        Lx.run(E, 1);
      });
      if (FusedInstrs)
        *FusedInstrs = Sys->Fused.Code.size();
    }
    double Ms = msBetween(T0, nowNs());
    R.check(D == S.ChainDigest, "chain: first linked instant differs");
    if (Starts)
      (*Starts)["chain"].push_back(Speed.scale(Ms));
  }
  for (const char *Name : NativePrograms) {
    Tracer::get().setGroup(std::string("warm:") + Name);
    Speed.probe();
    int64_t T0 = nowNs();
    uint64_t Spawns0 = ccSpawnCount();
    uint64_t D = 0;
    bool Hit = false;
    if (auto C = compileProgram(Name, S.Sources[Name], R)) {
      NativeStart NS = startNative(C->Compiled, S.Cache->path());
      Hit = NS.CacheHit && NS.Module;
      if (NS.Module) {
        NativeExecutor Nx(C->Compiled, *NS.Module);
        D = digestOf(S.EnvSeed[Name], [&](Environment &E) {
          Span Sp("native.step");
          Nx.stepN(E, 0, 1);
        });
      }
    }
    double Ms = msBetween(T0, nowNs());
    uint64_t Spawned = ccSpawnCount() - Spawns0;
    if (WarmSpawns)
      *WarmSpawns += Spawned;
    R.check(Hit && Spawned == 0 && D == S.FirstDigest[Name],
            std::string(Name) + ": warm native start missed the cache, "
                                "spawned a compiler or differs");
    if (Starts)
      (*Starts)[std::string("warm:") + Name].push_back(Speed.scale(Ms));
  }
  Tracer::get().setGroup("-");
  return msBetween(P0, nowNs()) - (Speed.totalMs() - Probe0);
}

} // namespace

Result perfbench::runCompile(const Args &A) {
  Result R;
  State S;
  double SetupS = timedSetup([&] { setUp(S, A, R); });
  bool Traced = Tracer::get().enabled();
  // The first-instant reference digests are needed by every leg.
  checkReference(S, R);
  int64_t End = nowNs() + static_cast<int64_t>(A.Seconds * 1e9);

  // Cold leg: an empty private cache, every program built by host cc.
  double ColdS = 0;
  NativeTotals ColdTot;
  R.line(fmt("%-11s %12s %12s", "cold start", "seconds", "cc spawns"));
  for (const char *Name : NativePrograms) {
    Tracer::get().setGroup(std::string("cold:") + Name);
    int64_t T0 = nowNs();
    uint64_t D = 0;
    NativeStart NS;
    if (auto C = compileProgram(Name, S.Sources[Name], R)) {
      NS = startNative(C->Compiled, S.Cache->path());
      if (NS.Module) {
        NativeExecutor Nx(C->Compiled, *NS.Module);
        D = digestOf(S.EnvSeed[Name], [&](Environment &E) {
          Span Sp("native.step");
          Nx.stepN(E, 0, 1);
        });
      }
    }
    double Sec = (nowNs() - T0) / 1e9;
    ColdS += Sec;
    ColdTot.add(NS);
    R.check(NS.Module && !NS.CacheHit && NS.CcSpawns == 1 &&
                D == S.FirstDigest[Name],
            std::string(Name) + ": cold native start failed or differs: " +
                NS.Error);
    R.line(fmt("%-11s %12.3f %12llu", Name, Sec,
               static_cast<unsigned long long>(NS.CcSpawns)));
  }
  Tracer::get().setGroup("-");

  StartSamples Starts;
  std::vector<double> UntracedMs, TracedMs;
  CompileCounts FrontCounts;
  uint64_t FusedInstrs = 0, WarmSpawns = 0;
  for (unsigned I = 0; nowNs() < End || I < 6; ++I) {
    // A traced run alternates untraced and traced passes: their
    // difference is the tracing overhead. Only traced passes count there.
    bool TracePass = Traced && I % 2 == 1;
    Tracer::get().enable(TracePass);
    if (Traced && !TracePass)
      UntracedMs.push_back(runPass(S, R, nullptr, nullptr, nullptr, nullptr));
    else
      TracedMs.push_back(
          runPass(S, R, &Starts, &FrontCounts, &FusedInstrs, &WarmSpawns));
  }
  Tracer::get().enable(Traced);
  unsigned Passes = static_cast<unsigned>(TracedMs.size());
  double RssMb = selfPeakRssMb();
  checkAfter(S, R);

  // One start of each, at each start's median time.
  double FrontMs = startsMs(Starts, "fe:"), LinkMs = startsMs(Starts, "chain"),
         WarmMs = startsMs(Starts, "warm:");
  R.line(fmt("(start times: median of %u passes, at the reference host "
             "speed)",
             Passes));
  for (const auto &[Group, Samples] : Starts)
    R.line(fmt("%-22s %10.3f ms", Group.c_str(), median(Samples)));
  R.line(fmt("frontend_ms            %.3f ms (%zu programs)", FrontMs,
             std::size(FrontEndPrograms)));
  R.line(fmt("link_ms                %.3f ms (%u-stage chain)", LinkMs,
             ChainStages));
  R.line(fmt("cold_native_s          %.3f s (%zu programs, empty cache)", ColdS,
             std::size(NativePrograms)));
  R.line(fmt("warm_native_ms         %.3f ms (%zu programs)", WarmMs,
             std::size(NativePrograms)));
  if (!Traced) {
    R.metric("setup_s", SetupS, "s");
    R.metric("peak_rss_mb", RssMb, "MB");
    R.metric("vm_rate_norm_per_s",
             (std::size(FrontEndPrograms) + 1.0) / ((FrontMs + LinkMs) / 1e3),
             "1/s");
    R.metric("native_rate_norm_per_s", std::size(NativePrograms) / (WarmMs / 1e3),
             "1/s");
    return R;
  }

  reportCompileLayers(R, FrontCounts, Passes, "fe:");
  reportNativeLayers(R, ColdTot, 1, "cold:");
  R.metric("native.load_ms", Tracer::get().selfMsIn("native.load", "warm:") /
                                 Passes,
           "ms");
  R.metric("native.cc_spawns_warm", double(WarmSpawns), "count");
  R.metric("link.compile_units_ms",
           Tracer::get().totalMsIn("link.compile_units", "chain") / Passes,
           "ms");
  R.metric("link.link_ms", Tracer::get().totalMsIn("link.link", "chain") /
                               Passes,
           "ms");
  R.metric("link.fused_instrs", double(FusedInstrs), "count");
  reportOverhead(R, median(UntracedMs), median(TracedMs));
  return R;
}
