//===--- Phases.h - The compiler driven from outside ------------*- C++-*-===//
///
/// \file
/// Two ways to bring a program from source to running code, used by
/// every workload:
///
///   * untraced, through the public entry points a user's embedding
///     calls (compileSource, TierController in force mode);
///   * traced, one public phase function at a time, each inside its own
///     span: Parser::parseProgram, Sema::analyze, extractClockSystem,
///     ClockForest::build, CondDepGraph::build, compileStep,
///     CompiledStep::build, and for native code hashCompiledStep,
///     NativeCache::tryLoad, NativeModule::buildSource (the C emitter),
///     compileSharedObject (host cc), the publishing rename and
///     NativeModule::load.
///
/// The traced path must reproduce the real one: every traced compile is
/// checked against compileSource by StepHash.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PHASES_H
#define PERFBENCH_PHASES_H

#include "Common.h"

#include "driver/Driver.h"
#include "native/NativeModule.h"
#include "native/TierController.h"

#include <memory>
#include <string>

namespace perfbench {

/// Artifact sizes of one compilation (the count metrics).
struct CompileCounts {
  uint64_t ClockVars = 0;
  uint64_t ForestNodes = 0;
  uint64_t BddNodes = 0;
  uint64_t BddHits = 0;
  uint64_t BddMisses = 0;
  uint64_t GraphEdges = 0;
  uint64_t Instrs = 0;
  uint64_t SkipGuards = 0;

  void add(const CompileCounts &O);
};

CompileCounts countsOf(sigc::Compilation &C);

/// Compiles \p Source exactly as compileSource does, but phase by phase,
/// one span per phase.
std::unique_ptr<sigc::Compilation> compilePhased(const std::string &Buffer,
                                                 const std::string &Source);

/// Compiles \p Source: phase by phase when tracing, otherwise via
/// compileSource. Failures are counted in \p R. Null on failure. Traced
/// compiles of the same source must repeat their StepHash and counts
/// exactly; verifyPhasedCompiles() later checks each against
/// compileSource.
std::unique_ptr<sigc::Compilation>
compileProgram(const std::string &Name, const std::string &Source, Result &R,
               CompileCounts *Counts = nullptr);

/// Checks every distinct phase-by-phase compile of this run against
/// compileSource by StepHash (outside any span).
void verifyPhasedCompiles(Result &R);

/// What one native start did (traced runs fill every field).
struct NativeStart {
  /// The loaded module (owned by Controller or Owned); null on failure.
  const sigc::NativeModule *Module = nullptr;
  std::unique_ptr<sigc::TierController> Controller;
  std::unique_ptr<sigc::NativeModule> Owned;
  bool CacheHit = false;
  uint64_t CcSpawns = 0;
  uint64_t CBytes = 0;
  uint64_t SoBytes = 0;
  std::string Error;
};

/// Brings \p CS to a loaded native module through the cache in
/// \p CacheDir: a hit loads, a miss emits C, runs the host cc,
/// publishes and loads. Untraced it goes through TierController in
/// force mode; traced, through the cache/emitter/cc/loader calls one by
/// one.
NativeStart startNative(const sigc::CompiledStep &CS,
                        const std::string &CacheDir);

/// Totals over a workload's native starts.
struct NativeTotals {
  uint64_t CBytes = 0;
  uint64_t SoBytes = 0;
  uint64_t WarmSpawns = 0;

  void add(const NativeStart &NS);
};

/// Fills the compiler-layer metrics of a traced run from the phase spans
/// of the groups starting with \p GroupPrefix and from \p Counts, both
/// divided by \p Passes (the times the workload compiled its program
/// set).
void reportCompileLayers(Result &R, const CompileCounts &Counts,
                         unsigned Passes, const std::string &GroupPrefix = "");
/// Fills the native-build metrics (emit, hash, cc, load, sizes) the
/// same way.
void reportNativeLayers(Result &R, const NativeTotals &T, unsigned Passes,
                        const std::string &GroupPrefix = "");

} // namespace perfbench

#endif // PERFBENCH_PHASES_H
