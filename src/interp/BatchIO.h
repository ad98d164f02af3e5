//===--- BatchIO.h - Typed environment exchange of a batch ------*- C++-*-===//
///
/// \file
/// The environment boundary of an executor's window, shared by the VM
/// and the native tier. The Environment speaks tagged Values; the step reads
/// and writes 8-byte Slots. BatchIO converts between the two once per
/// value and batch, by declared type, never inside the step:
///
///   * prefetch() fetches a window's free-clock ticks and input values
///     with one bulk call per descriptor, converting each input column to
///     slots by the input's declared type,
///   * the step fills row-major [instant][flush position] output buffers,
///   * flush() turns every present output slot back into a Value of the
///     output's declared type (the step writes outputs in that
///     representation) and hands the window to
///     Environment::exchangeOutputs instant by instant, each instant's
///     outputs in write order.
///
/// Columns are strided by capacity(), the layout `sigc_native_run` reads.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_INTERP_BATCHIO_H
#define SIGNALC_INTERP_BATCHIO_H

#include "interp/CompiledStep.h"
#include "interp/Environment.h"
#include "interp/StepKinds.h"

#include <vector>

namespace sigc {

/// Instants per window of the executors' run() and of a simulation that
/// names no window size.
constexpr unsigned RunWindow = 8;

/// An environment bound to a CompiledStep: descriptor ids, the batch
/// flush table (flush position -> output id) and the identity() it was
/// resolved against. Executors cache one; a fleet keeps one per lane.
struct BoundEnv {
  StepBindings Ids;
  std::vector<EnvOutputId> FlushIds;
  uint64_t Identity = 0;
};

/// Resolves \p Env against \p CS (cold path: interns names, allocates).
BoundEnv bindEnv(Environment &Env, const CompiledStep &CS);

/// Batch buffers plus the Value <-> Slot conversions at their edges.
class BatchIO {
public:
  explicit BatchIO(const CompiledStep &CS) : CS(CS) {}

  /// Grows the buffers to batches of \p MaxCount instants (a one-time
  /// allocation; prefetch/flush never allocate below the capacity).
  void reserve(unsigned MaxCount);
  unsigned capacity() const { return Cap; }

  /// Fills the tick and input columns for instants [Start, Start+Count);
  /// reserves as needed. The step fills every output presence row of the
  /// window before flush().
  void prefetch(Environment &Env, const BoundEnv &B, unsigned Start,
                unsigned Count);
  /// Delivers the output rows of instants [Start, Start+Count).
  void flush(Environment &Env, const BoundEnv &B, unsigned Start,
             unsigned Count);

  std::vector<unsigned char> Ticks;      ///< [clock desc][instant].
  std::vector<Slot> Ins;                 ///< [input desc][instant].
  std::vector<unsigned char> OutPresent; ///< [instant][flush position].
  std::vector<Slot> Outs;                ///< [instant][flush position].

private:
  const CompiledStep &CS;
  unsigned Cap = 0;
  std::vector<Value> InVals;        ///< One fetched column.
  std::vector<Value> OutVals;       ///< [instant][flush position].
};

} // namespace sigc

#endif // SIGNALC_INTERP_BATCHIO_H
