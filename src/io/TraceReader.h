//===--- TraceReader.h - Robust trace decoding ------------------*- C++-*-===//
///
/// \file
/// Sequential decoding of the binary trace format from a pluggable byte
/// source. Two production sources cover the two stream shapes the
/// ROADMAP names:
///
///   * MmapTraceSource — replay of an on-disk recording: the file is
///     mapped once and frames decode straight out of the mapping, no
///     copies, no read(2) in the steady state;
///   * FdTraceSource — pipes and sockets, where mmap is unavailable: a
///     fixed ring of buffered read(2) calls, each refill pulling as many
///     frames' worth of bytes as the kernel will give.
///
/// MemoryTraceSource serves tests and the oracle's byte-level pins.
///
/// The reader never trusts input: bad magic, unsupported version,
/// byteswapped producers, malformed descriptor tables, oversized frame
/// lengths, payload checksum mismatches and truncation anywhere are all
/// diagnosed with the byte offset of the failure — a corrupt file is an
/// exit-code-2 diagnostic, never UB (the corrupt-input regression suite
/// runs this under ASan/UBSan).
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_IO_TRACEREADER_H
#define SIGNALC_IO_TRACEREADER_H

#include "io/TraceFormat.h"

namespace sigc {

class IoSyscalls;

/// Sequential byte source. peek() exposes at least \p Min buffered bytes
/// (less only at end of stream); consume() retires them.
class TraceSource {
public:
  virtual ~TraceSource();
  /// \returns a pointer to the next unconsumed bytes and sets \p Avail
  /// to how many are visible (>= Min unless the stream ended). On an
  /// I/O error returns nullptr and fills \p Error.
  virtual const uint8_t *peek(size_t Min, size_t &Avail,
                              std::string &Error) = 0;
  /// Retires \p N bytes (N <= the last peek's Avail).
  virtual void consume(size_t N) = 0;
};

/// A source over bytes already in memory.
class MemoryTraceSource : public TraceSource {
public:
  MemoryTraceSource(const uint8_t *Data, size_t Len) : Data(Data), Len(Len) {}
  explicit MemoryTraceSource(const std::vector<uint8_t> &Bytes)
      : Data(Bytes.data()), Len(Bytes.size()) {}
  const uint8_t *peek(size_t Min, size_t &Avail, std::string &Error) override;
  void consume(size_t N) override;

private:
  const uint8_t *Data;
  size_t Len;
  size_t Pos = 0;
};

/// Maps a whole file and reads out of the mapping.
class MmapTraceSource : public TraceSource {
public:
  MmapTraceSource() = default;
  ~MmapTraceSource() override;
  /// Maps \p Path read-only; false (with \p Error) when the file cannot
  /// be opened, statted or mapped (e.g. it is a pipe).
  bool open(const std::string &Path, std::string &Error);
  const uint8_t *peek(size_t Min, size_t &Avail, std::string &Error) override;
  void consume(size_t N) override;

private:
  const uint8_t *Map = nullptr;
  size_t Len = 0;
  size_t Pos = 0;
};

/// Buffered read(2) over a descriptor — the no-mmap path for pipes,
/// sockets and FIFOs. The buffer compacts and refills in place; its size
/// is fixed after construction, so steady-state streaming allocates
/// nothing.
class FdTraceSource : public TraceSource {
public:
  /// \p OwnsFd closes the descriptor on destruction. \p BufSize is
  /// grown as needed to hold one whole peek (a frame), so any positive
  /// value is correct. \p Sys overrides the read(2) layer (fault
  /// injection); nullptr uses the real syscalls.
  explicit FdTraceSource(int Fd, bool OwnsFd, size_t BufSize = 1 << 16,
                         IoSyscalls *Sys = nullptr);
  ~FdTraceSource() override;
  /// Opens \p Path with open(2); false (with \p Error) on failure.
  static int openFile(const std::string &Path, std::string &Error);

  const uint8_t *peek(size_t Min, size_t &Avail, std::string &Error) override;
  void consume(size_t N) override;

private:
  int Fd;
  bool OwnsFd;
  IoSyscalls *Sys;
  std::vector<uint8_t> Buf;
  size_t Begin = 0, End = 0;
  bool Eof = false;
};

/// Decodes one trace stream: header first, then frames until the
/// trailer. Frame buffers are reused; steady-state decoding is
/// allocation-free.
class TraceReader {
public:
  /// The source must outlive the reader.
  explicit TraceReader(TraceSource &Source) : Source(Source) {}

  /// Parses and validates the header. False with error() positioned on
  /// any failure.
  bool readHeader();

  /// The interface parsed from the header (valid after readHeader()).
  const TraceSpec &spec() const { return Spec; }

  /// Validates the trace interface against the compiled step it is
  /// about to drive: free clocks, inputs and outputs must match name for
  /// name and type for type. False (error() positioned, kind
  /// InterfaceMismatch) on any difference.
  bool matchesStep(const CompiledStep &CS);

  /// Decodes the next frame into \p F. Frame on success, End at the
  /// trailer, Error otherwise (a file source reports a mid-frame EOF as
  /// Error with a Truncated kind, and bytes after the trailer as Error
  /// with a Malformed kind; NeedMore is never returned here).
  TraceFrameStatus nextFrame(TraceFrame &F);

  /// Total instants declared by the trailer (valid once nextFrame
  /// returned End).
  unsigned totalInstants() const { return TotalInstants; }

  /// Stream offset of the next unread byte.
  uint64_t offset() const { return Offset; }

  const TraceError &error() const { return Err; }

private:
  /// True when the source is exhausted; otherwise false with Err set.
  bool atEndOfStream();

  TraceSource &Source;
  TraceSpec Spec;
  TraceError Err;
  uint64_t Offset = 0;
  unsigned TotalInstants = 0;
  unsigned NextInstant = 0; ///< Expected start of the next frame.
  bool HeaderRead = false;
};

} // namespace sigc

#endif // SIGNALC_IO_TRACEREADER_H
