//===--- TraceCompare.h - Output-trace comparison ---------------*- C++-*-===//
///
/// \file
/// Canonicalization and comparison of output traces for differential
/// testing. The execution paths (fixpoint interpreter, flat and nested
/// VM layouts) and the emitted-C harness may write the outputs of one
/// instant in different orders; a canonical trace sorts events of the
/// same instant by signal name so comparisons see only semantic
/// divergence.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_TESTING_TRACECOMPARE_H
#define SIGNALC_TESTING_TRACECOMPARE_H

#include "interp/Environment.h"

#include <string>
#include <vector>

namespace sigc {

/// \returns \p Events sorted by (instant, signal name), stably.
std::vector<OutputEvent> canonicalTrace(std::vector<OutputEvent> Events);

/// Result of comparing two traces.
struct TraceDiff {
  bool Equal = true;
  /// Human-readable report of the first divergence (empty when equal):
  /// the mismatching event from each side plus a little shared context.
  std::string Report;
};

/// Compares two traces after canonicalization. \p NameA / \p NameB label
/// the two execution paths in the report ("interp", "step-nested", ...).
TraceDiff compareTraces(const std::string &NameA, std::vector<OutputEvent> A,
                        const std::string &NameB, std::vector<OutputEvent> B);

} // namespace sigc

#endif // SIGNALC_TESTING_TRACECOMPARE_H
