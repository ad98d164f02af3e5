//===--- Metrics.h - The benchmark's metric names ---------------*- C++-*-===//
///
/// \file
/// The one list of metric names and units. BENCHMARK.json and
/// perfbench/README.md repeat it; main() prints exactly these keys in the
/// final JSON line: the end-to-end list for untraced runs, the per-layer
/// list for traced runs. A workload that does not exercise a layer
/// reports 0 for that layer's metrics.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_METRICS_H
#define PERFBENCH_METRICS_H

namespace perfbench {

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// End-to-end metrics, reported by every workload (see README.md for
/// what each means on each workload).
inline constexpr MetricDef EndToEndMetrics[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"vm_rate_norm_per_s", "1/s"},
    {"native_rate_norm_per_s", "1/s"},
};

/// Per-layer metrics of a traced run.
inline constexpr MetricDef LayerMetrics[] = {
    {"parser.parse_ms", "ms"},
    {"sema.analyze_ms", "ms"},
    {"clock.extract_ms", "ms"},
    {"clock.vars", "count"},
    {"forest.build_ms", "ms"},
    {"forest.nodes", "count"},
    {"bdd.nodes", "count"},
    {"bdd.cache_hit_ratio", "ratio"},
    {"graph.build_ms", "ms"},
    {"graph.edges", "count"},
    {"codegen.compile_step_ms", "ms"},
    {"interp.compiled_build_ms", "ms"},
    {"interp.bytecode_instrs", "count"},
    {"interp.skip_guards", "count"},
    {"codegen.emit_c_ms", "ms"},
    {"codegen.c_bytes", "bytes"},
    {"native.hash_ms", "ms"},
    {"native.cc_s", "s"},
    {"native.so_bytes", "bytes"},
    {"native.load_ms", "ms"},
    {"native.cc_spawns_warm", "count"},
    {"link.compile_units_ms", "ms"},
    {"link.link_ms", "ms"},
    {"link.fused_instrs", "count"},
    {"io.decode_ns_per_instant", "ns"},
    {"io.encode_ns_per_instant", "ns"},
    {"io.bytes_per_instant", "bytes"},
    {"env.exchange_ns_per_instant", "ns"},
    {"interp.step_ns_per_instant", "ns"},
    {"interp.guard_tests_per_instant", "count"},
    {"interp.executed_per_instant", "count"},
    {"native.step_ns_per_instant", "ns"},
    {"native.guard_tests_per_instant", "count"},
    {"fleet.scalar_instants_per_s", "1/s"},
    {"fleet.t1_instants_per_s", "1/s"},
    {"fleet.scaling", "ratio"},
    {"fleet.guard_tests_per_instance_instant", "count"},
    {"trace.overhead_ratio", "ratio"},
};

} // namespace perfbench

#endif // PERFBENCH_METRICS_H
