//===--- bench_fleet.cpp - Fleet-execution throughput ---------------------===//
///
/// Measures fleet throughput — instance-instants per second — of running
/// many instances of one compiled process over identical random traces:
///
///   * scalar    — one VmExecutor per instance, run sequentially (the
///                 baseline),
///   * fleet tT  — the FleetExecutor's VM lanes, sharded over T worker
///                 threads (T = 1, 4 and the hardware concurrency; T=1
///                 measures what the lane bookkeeping costs over the
///                 scalar loop, the others add parallel scaling),
///   * native    — the same lanes on one thread through setNative: the
///                 bytecode compiled to a shared object by the host C
///                 compiler, each lane stepped by its `sigc_native_run`
///                 (skipped when no compiler is found).
///
/// Workloads: the Figure-5 alarm and divider chains at dense and sparse
/// root activity — the same shapes bench_step times scalar engines on,
/// so the two reports compose.
///
/// Usage: bench_fleet [--json FILE] [--instants K] [--instances M]
/// CI uploads the JSON output as BENCH_fleet.json.
///
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "interp/FleetExecutor.h"
#include "interp/VmExecutor.h"
#include "native/CcRunner.h"
#include "native/NativeCache.h"
#include "native/StepHash.h"
#include "programs/Programs.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace sigc;

namespace {

/// Random environment that drops outputs: throughput runs measure the
/// engines, not trace recording.
class DiscardEnvironment : public RandomEnvironment {
public:
  using RandomEnvironment::RandomEnvironment;
  void writeOutput(EnvOutputId, unsigned, const Value &) override {}
};

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

struct Row {
  std::string Name;
  unsigned TickPermille = 800;
  double ScalarPerSec = 0;
  double FleetT1PerSec = 0, FleetT4PerSec = 0, FleetTMaxPerSec = 0;
  unsigned MaxThreads = 1;
  double NativePerSec = 0; ///< 0 when the native leg did not run.
};

/// A fleet of per-instance discard environments (instance j seeded
/// Seed+j, matching the CLI's --fleet convention).
struct EnvFleet {
  std::vector<std::unique_ptr<DiscardEnvironment>> Owned;
  std::vector<Environment *> Envs;
  EnvFleet(unsigned Instances, uint64_t Seed, unsigned TickPermille) {
    for (unsigned J = 0; J < Instances; ++J) {
      Owned.push_back(
          std::make_unique<DiscardEnvironment>(Seed + J, TickPermille));
      Envs.push_back(Owned.back().get());
    }
  }
};

/// Sequential baseline: every instance through its own scalar VM.
double scalarThroughput(const CompiledStep &CS, unsigned Instances,
                        unsigned TickPermille, unsigned Instants) {
  EnvFleet F(Instances, 42, TickPermille);
  std::vector<std::unique_ptr<VmExecutor>> Execs;
  for (unsigned J = 0; J < Instances; ++J) {
    Execs.push_back(std::make_unique<VmExecutor>(CS));
    Execs[J]->run(*F.Envs[J], Instants / 8 + 1); // Bind + warm.
    Execs[J]->reset();
  }
  auto T0 = std::chrono::steady_clock::now();
  for (unsigned J = 0; J < Instances; ++J)
    Execs[J]->run(*F.Envs[J], Instants);
  double S = secondsSince(T0);
  return S > 0 ? static_cast<double>(Instances) * Instants / S : 0;
}

/// The fleet's lanes at a given shard-thread count, on \p Native's step
/// when it is set.
double fleetThroughput(const CompiledStep &CS, unsigned Instances,
                       unsigned TickPermille, unsigned Instants,
                       unsigned LaneBlock, unsigned Threads,
                       const NativeModule *Native = nullptr) {
  EnvFleet F(Instances, 42, TickPermille);
  FleetExecutor::Config Cfg;
  Cfg.LaneBlock = LaneBlock;
  Cfg.Threads = Threads;
  FleetExecutor Exec(CS, Instances, Cfg);
  Exec.setNative(Native);
  Exec.run(F.Envs, Instants / 8 + 1); // Bind + warm.
  Exec.reset();
  auto T0 = std::chrono::steady_clock::now();
  Exec.run(F.Envs, Instants);
  double S = secondsSince(T0);
  return S > 0 ? static_cast<double>(Instances) * Instants / S : 0;
}

/// Compiles \p CS to a shared object in a throwaway cache directory and
/// times the native lanes on one thread; \returns instance-instants/sec,
/// 0 on any failure.
double nativeThroughput(const CompiledStep &CS, unsigned Instances,
                        unsigned TickPermille, unsigned Instants,
                        unsigned LaneBlock) {
  char Dir[] = "/tmp/sigc-benchfleet-XXXXXX";
  if (!mkdtemp(Dir))
    return 0;
  NativeCache Cache(Dir);
  std::string Hash = hashCompiledStep(CS), Err;
  double PerSec = 0;
  if (std::unique_ptr<NativeModule> M =
          Cache.compileAndPublish(CS, Hash, Err))
    PerSec = fleetThroughput(CS, Instances, TickPermille, Instants,
                             LaneBlock, 1, M.get());
  else
    std::fprintf(stderr, "native build failed: %s\n", Err.c_str());
  std::remove(Cache.soPath(Hash).c_str());
  rmdir(Dir);
  return PerSec;
}

Row benchProgram(const std::string &Name, const std::string &Source,
                 unsigned Instances, unsigned TickPermille, unsigned Instants,
                 bool WithNative) {
  auto C = compileSource("<bench:" + Name + ">", Source);
  if (!C->Ok) {
    std::fprintf(stderr, "%s: compilation failed:\n%s", Name.c_str(),
                 C->Diags.render().c_str());
    std::exit(1);
  }
  Row R;
  R.Name = Name;
  R.TickPermille = TickPermille;
  R.MaxThreads = std::thread::hardware_concurrency();
  if (R.MaxThreads < 2)
    R.MaxThreads = 2;

  // A lane block well below the instance count, so the shard pool has
  // several blocks per thread to spread.
  const unsigned LaneBlock = 16;
  R.ScalarPerSec =
      scalarThroughput(C->Compiled, Instances, TickPermille, Instants);
  R.FleetT1PerSec = fleetThroughput(C->Compiled, Instances, TickPermille,
                                    Instants, LaneBlock, 1);
  R.FleetT4PerSec = fleetThroughput(C->Compiled, Instances, TickPermille,
                                    Instants, LaneBlock, 4);
  R.FleetTMaxPerSec = fleetThroughput(C->Compiled, Instances, TickPermille,
                                      Instants, LaneBlock, R.MaxThreads);
  if (WithNative)
    R.NativePerSec = nativeThroughput(C->Compiled, Instances, TickPermille,
                                      Instants, LaneBlock);
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Instants = 4096;
  unsigned Instances = 128;
  bool WithNative = nativeCompileAvailable();
  std::string JsonPath;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--json" && I + 1 < Argc)
      JsonPath = Argv[++I];
    else if (Arg == "--instants" && I + 1 < Argc)
      Instants = static_cast<unsigned>(std::stoul(Argv[++I]));
    else if (Arg == "--instances" && I + 1 < Argc)
      Instances = static_cast<unsigned>(std::stoul(Argv[++I]));
  }
  if (!WithNative)
    std::fprintf(stderr, "no host C compiler: skipping the native leg\n");

  std::printf("Fleet throughput (instance-instants/sec, %u instances x %u "
              "instants)\n\n",
              Instances, Instants);
  std::printf("%-14s %6s %12s %12s %12s %12s %12s %8s %8s\n", "program",
              "tick", "scalar", "fleet-t1", "fleet-t4", "fleet-tmax",
              "native", "t1/scal", "tmax/t1");

  std::vector<Row> Rows;
  auto Report = [&](const Row &R) {
    std::printf("%-14s %6u %12.0f %12.0f %12.0f %12.0f %12.0f %7.2fx "
                "%7.2fx\n",
                R.Name.c_str(), R.TickPermille, R.ScalarPerSec,
                R.FleetT1PerSec, R.FleetT4PerSec, R.FleetTMaxPerSec,
                R.NativePerSec,
                R.ScalarPerSec > 0 ? R.FleetT1PerSec / R.ScalarPerSec : 0,
                R.FleetT1PerSec > 0 ? R.FleetTMaxPerSec / R.FleetT1PerSec
                                    : 0);
    Rows.push_back(R);
  };

  Report(benchProgram("FIG5_ALARM", alarmFigure5Source(), Instances, 800,
                      Instants, WithNative));
  for (unsigned Stages : {16u, 48u})
    for (unsigned Permille : {1000u, 250u}) {
      ProgramShape Shape;
      Shape.DividerStages = Stages;
      Report(benchProgram("chain" + std::to_string(Stages),
                          generateProgram("CHAIN", Shape), Instances,
                          Permille, Instants, WithNative));
    }

  if (!JsonPath.empty()) {
    std::ofstream Out(JsonPath);
    Out << "{\n  \"benchmarks\": [\n";
    for (size_t I = 0; I < Rows.size(); ++I) {
      const Row &R = Rows[I];
      Out << "    {\"name\": \"fleet/" << R.Name << "/tick="
          << R.TickPermille << "\", "
          << "\"instances\": " << Instances << ", "
          << "\"scalar_vm_ii_per_sec\": " << R.ScalarPerSec << ", "
          << "\"fleet_vm_t1_ii_per_sec\": " << R.FleetT1PerSec << ", "
          << "\"fleet_vm_t4_ii_per_sec\": " << R.FleetT4PerSec << ", "
          << "\"fleet_vm_tmax_ii_per_sec\": " << R.FleetTMaxPerSec << ", "
          << "\"max_threads\": " << R.MaxThreads << ", "
          << "\"native_fleet_t1_ii_per_sec\": " << R.NativePerSec << ", "
          << "\"fleet_t1_vs_scalar\": "
          << (R.ScalarPerSec > 0 ? R.FleetT1PerSec / R.ScalarPerSec : 0)
          << ", "
          << "\"fleet_tmax_vs_t1\": "
          << (R.FleetT1PerSec > 0 ? R.FleetTMaxPerSec / R.FleetT1PerSec : 0)
          << ", "
          << "\"native_vs_fleet_t1\": "
          << (R.FleetT1PerSec > 0 ? R.NativePerSec / R.FleetT1PerSec : 0)
          << "}" << (I + 1 < Rows.size() ? "," : "") << "\n";
    }
    Out << "  ]\n}\n";
    std::printf("\nwrote %s\n", JsonPath.c_str());
  }
  return 0;
}
