//===--- Workloads.h - The three benchmark workloads -------------*- C++-*-===//
///
/// \file
/// Each workload sets itself up (timed, several times, median reported
/// as setup_s), checks its outputs against the reference semantics,
/// measures for Args::Seconds, and fills a Result with the end-to-end
/// metrics (untraced run) or the per-layer metrics (traced run).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Common.h"

#include <functional>

namespace perfbench {

Result runCompile(const Args &A);
Result runReplay(const Args &A);
Result runFleet(const Args &A);

/// Set-up repetitions of an untraced run; setup_s is their median. A
/// traced run sets up once.
constexpr unsigned SetupReps = 5;

/// Runs \p Setup SetupReps times (once when tracing) and returns the
/// median wall time in seconds, each repetition scaled to the reference
/// host speed by probes run just before and after it. Each repetition
/// must rebuild all state from scratch; the last one's state is what the
/// workload measures.
double timedSetup(const std::function<void()> &Setup);

/// Instants per trace frame and per execution batch everywhere: the
/// trace format's default frame capacity, as `signalc --record` writes.
constexpr unsigned FrameInstants = 64;

/// Formats the tracing overhead line and records trace.overhead_ratio.
void reportOverhead(Result &R, double UntracedMs, double TracedMs);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
