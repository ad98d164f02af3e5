//===--- Phases.cpp -------------------------------------------------------===//

#include "Phases.h"

#include "codegen/StepCompiler.h"
#include "native/CcRunner.h"
#include "native/NativeCache.h"
#include "native/StepHash.h"
#include "native/TierController.h"
#include "sema/Sema.h"

#include <cstdio>
#include <map>

using namespace perfbench;
using namespace sigc;

void CompileCounts::add(const CompileCounts &O) {
  ClockVars += O.ClockVars;
  ForestNodes += O.ForestNodes;
  BddNodes += O.BddNodes;
  BddHits += O.BddHits;
  BddMisses += O.BddMisses;
  GraphEdges += O.GraphEdges;
  Instrs += O.Instrs;
  SkipGuards += O.SkipGuards;
}

CompileCounts perfbench::countsOf(Compilation &C) {
  CompileCounts K;
  K.ClockVars = C.Clocks.numVars();
  K.ForestNodes = C.Forest ? C.Forest->numNodes() : 0;
  K.BddNodes = C.Bdds.numNodes();
  K.BddHits = C.Bdds.cacheHits();
  K.BddMisses = C.Bdds.cacheMisses();
  K.GraphEdges = C.Graph.numEdges();
  K.Instrs = C.Compiled.Code.size();
  for (const VmInstr &I : C.Compiled.Code)
    K.SkipGuards += I.Op == VmOp::SkipIfAbsent;
  return K;
}

std::unique_ptr<Compilation> perfbench::compilePhased(const std::string &Buffer,
                                                      const std::string &Source) {
  // Mirrors compileSource (src/driver/Driver.cpp) step for step, with
  // default CompileOptions: first process, unlimited budget.
  auto C = std::make_unique<Compilation>();
  SourceLoc Start = C->SM.addBuffer(Buffer, Source);
  std::string_view Text = C->SM.bufferText(Start);
  {
    Span S("parser.parse");
    Parser P(Text, Start, C->Ctx, C->Diags);
    C->Ast = P.parseProgram();
  }
  if (!C->Ast || C->Diags.hasErrors() || C->Ast->Processes.empty()) {
    C->FailedStage = CompileStage::Parse;
    return C;
  }
  C->Decl = C->Ast->Processes.front();
  {
    Span S("sema.analyze");
    Sema Se(C->Ctx, C->Diags);
    C->Kernel = Se.analyze(*C->Decl);
  }
  if (!C->Kernel || C->Diags.hasErrors()) {
    C->FailedStage = CompileStage::Sema;
    return C;
  }
  {
    Span S("clock.extract");
    C->Clocks = extractClockSystem(*C->Kernel);
  }
  bool Ok;
  {
    Span S("forest.build");
    C->ForestBudget = Budget();
    C->ForestBudget.start();
    C->Bdds.setBudget(&C->ForestBudget);
    C->Forest = std::make_unique<ClockForest>(C->Bdds);
    Ok = C->Forest->build(C->Clocks, *C->Kernel, C->Ctx.interner(), C->Diags);
  }
  if (!Ok) {
    C->FailedStage = CompileStage::ClockCalculus;
    return C;
  }
  {
    Span S("graph.build");
    Ok = C->Graph.build(*C->Kernel, C->Clocks, *C->Forest, C->Ctx.interner(),
                        C->Diags);
  }
  if (!Ok) {
    C->FailedStage = CompileStage::Graph;
    return C;
  }
  {
    Span S("codegen.compile_step");
    C->Step = compileStep(*C->Kernel, C->Clocks, *C->Forest, C->Graph,
                          C->Ctx.interner());
  }
  {
    Span S("interp.compiled_build");
    C->Compiled = CompiledStep::build(*C->Kernel, C->Step);
  }
  C->Ok = true;
  return C;
}

namespace {

/// One distinct source compiled phase by phase in a traced run.
struct PhasedRecord {
  std::string Name;
  std::string Hash;
  CompileCounts Counts;
};

/// Keyed by buffer name and source text.
std::map<std::pair<std::string, std::string>, PhasedRecord> &phasedRecords() {
  static std::map<std::pair<std::string, std::string>, PhasedRecord> M;
  return M;
}

bool sameCounts(const CompileCounts &A, const CompileCounts &B) {
  return A.ClockVars == B.ClockVars && A.ForestNodes == B.ForestNodes &&
         A.BddNodes == B.BddNodes && A.BddHits == B.BddHits &&
         A.BddMisses == B.BddMisses && A.GraphEdges == B.GraphEdges &&
         A.Instrs == B.Instrs && A.SkipGuards == B.SkipGuards;
}

} // namespace

std::unique_ptr<Compilation>
perfbench::compileProgram(const std::string &Name, const std::string &Source,
                          Result &R, CompileCounts *Counts) {
  std::string Buffer = "<perfbench:" + Name + ">";
  bool Traced = Tracer::get().enabled();
  std::unique_ptr<Compilation> C =
      Traced ? compilePhased(Buffer, Source) : compileSource(Buffer, Source);
  R.check(C->Ok, Name + ": compilation failed in " +
                     std::string(C->failedStageName()) + ":\n" +
                     C->Diags.render());
  if (!C->Ok)
    return nullptr;
  CompileCounts K = countsOf(*C);
  if (Counts)
    Counts->add(K);
  if (Traced) {
    // Every repetition of a phase-by-phase compile must give the same
    // step and the same artifact sizes: the compiler is deterministic.
    auto Ins = phasedRecords().try_emplace({Buffer, Source});
    PhasedRecord &Rec = Ins.first->second;
    std::string Hash = hashCompiledStep(C->Compiled);
    if (Ins.second)
      Rec = {Name, Hash, K};
    else
      R.check(Rec.Hash == Hash && sameCounts(Rec.Counts, K),
              Name + ": repeated compile gave another step or other counts");
  }
  return C;
}

void perfbench::verifyPhasedCompiles(Result &R) {
  bool Was = Tracer::get().enabled();
  Tracer::get().enable(false);
  for (const auto &[Key, Rec] : phasedRecords()) {
    auto Ref = compileSource(Key.first, Key.second);
    R.check(Ref->Ok && hashCompiledStep(Ref->Compiled) == Rec.Hash,
            Rec.Name + ": phase-by-phase compile differs from compileSource");
  }
  if (!phasedRecords().empty())
    R.line(fmt("phase-by-phase compiles: %zu distinct sources, StepHash "
               "checked against compileSource",
               phasedRecords().size()));
  phasedRecords().clear();
  Tracer::get().enable(Was);
}

NativeStart perfbench::startNative(const CompiledStep &CS,
                                   const std::string &CacheDir) {
  NativeStart NS;
  uint64_t Spawns0 = ccSpawnCount();
  if (!Tracer::get().enabled()) {
    TierOptions Opts;
    Opts.Mode = NativeMode::Force;
    Opts.CacheDir = CacheDir;
    NS.Controller = std::make_unique<TierController>(CS, Opts);
    if (!NS.Controller->start())
      NS.Error = NS.Controller->error();
    NS.CacheHit = NS.Controller->cacheHit();
    NS.Module = NS.Controller->module();
    NS.CcSpawns = ccSpawnCount() - Spawns0;
    return NS;
  }

  std::string Hash;
  {
    Span S("native.hash");
    Hash = hashCompiledStep(CS);
  }
  NativeCache Cache(CacheDir);
  {
    // A hit validates and loads here; a miss is only a failed lookup.
    bool Present = fileBytes(Cache.soPath(Hash)) > 0;
    Span S(Present ? "native.load" : "native.lookup");
    NS.Owned = Cache.tryLoad(Hash, NS.Error);
  }
  if (NS.Owned) {
    NS.Module = NS.Owned.get();
    NS.CacheHit = true;
    NS.CcSpawns = ccSpawnCount() - Spawns0;
    return NS;
  }
  std::string Source;
  {
    Span S("codegen.emit_c");
    Source = NativeModule::buildSource(CS, Hash);
  }
  NS.CBytes = Source.size();
  std::string Tmp = CacheDir + "/tmp.perfbench.so";
  bool Ok;
  {
    Span S("native.cc");
    Ok = compileSharedObject(Source, Tmp, NS.Error);
  }
  NS.CcSpawns = ccSpawnCount() - Spawns0;
  if (!Ok)
    return NS;
  std::string Final = Cache.soPath(Hash);
  {
    Span S("native.publish");
    if (std::rename(Tmp.c_str(), Final.c_str()) != 0) {
      NS.Error = "cannot publish " + Final;
      return NS;
    }
  }
  NS.SoBytes = fileBytes(Final);
  auto M = std::make_unique<NativeModule>();
  {
    Span S("native.load");
    Ok = M->load(Final, Hash, NS.Error);
  }
  if (Ok) {
    NS.Owned = std::move(M);
    NS.Module = NS.Owned.get();
  }
  return NS;
}

void NativeTotals::add(const NativeStart &NS) {
  CBytes += NS.CBytes;
  SoBytes += NS.SoBytes;
  if (NS.CacheHit)
    WarmSpawns += NS.CcSpawns;
}

void perfbench::reportCompileLayers(Result &R, const CompileCounts &K,
                                    unsigned Passes,
                                    const std::string &GroupPrefix) {
  double P = Passes ? Passes : 1;
  struct {
    const std::string &Prefix;
    double selfMs(const char *Name) const {
      return Tracer::get().selfMsIn(Name, Prefix);
    }
  } T{GroupPrefix};
  R.metric("parser.parse_ms", T.selfMs("parser.parse") / P, "ms");
  R.metric("sema.analyze_ms", T.selfMs("sema.analyze") / P, "ms");
  R.metric("clock.extract_ms", T.selfMs("clock.extract") / P, "ms");
  R.metric("clock.vars", K.ClockVars / P, "count");
  R.metric("forest.build_ms", T.selfMs("forest.build") / P, "ms");
  R.metric("forest.nodes", K.ForestNodes / P, "count");
  R.metric("bdd.nodes", K.BddNodes / P, "count");
  uint64_t Lookups = K.BddHits + K.BddMisses;
  R.metric("bdd.cache_hit_ratio", Lookups ? double(K.BddHits) / Lookups : 0,
           "ratio");
  R.metric("graph.build_ms", T.selfMs("graph.build") / P, "ms");
  R.metric("graph.edges", K.GraphEdges / P, "count");
  R.metric("codegen.compile_step_ms", T.selfMs("codegen.compile_step") / P,
           "ms");
  R.metric("interp.compiled_build_ms", T.selfMs("interp.compiled_build") / P,
           "ms");
  R.metric("interp.bytecode_instrs", K.Instrs / P, "count");
  R.metric("interp.skip_guards", K.SkipGuards / P, "count");
}

void perfbench::reportNativeLayers(Result &R, const NativeTotals &N,
                                   unsigned Passes,
                                   const std::string &GroupPrefix) {
  double P = Passes ? Passes : 1;
  struct {
    const std::string &Prefix;
    double selfMs(const char *Name) const {
      return Tracer::get().selfMsIn(Name, Prefix);
    }
  } T{GroupPrefix};
  R.metric("codegen.emit_c_ms", T.selfMs("codegen.emit_c") / P, "ms");
  R.metric("codegen.c_bytes", N.CBytes / P, "bytes");
  R.metric("native.hash_ms", T.selfMs("native.hash") / P, "ms");
  R.metric("native.cc_s", T.selfMs("native.cc") / 1e3 / P, "s");
  R.metric("native.so_bytes", N.SoBytes / P, "bytes");
  R.metric("native.load_ms", T.selfMs("native.load") / P, "ms");
  R.metric("native.cc_spawns_warm", double(N.WarmSpawns), "count");
}
