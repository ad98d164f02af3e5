//===--- TraceReader.cpp --------------------------------------------------===//

#include "io/TraceReader.h"

#include "io/FaultInjection.h"

#include <cassert>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace sigc;

TraceSource::~TraceSource() = default;

//===----------------------------------------------------------------------===//
// MemoryTraceSource
//===----------------------------------------------------------------------===//

const uint8_t *MemoryTraceSource::peek(size_t, size_t &Avail, std::string &) {
  Avail = Len - Pos;
  // An empty buffer (e.g. a vector that never allocated) has no data
  // pointer; zero-length reads still need a non-null cursor so the
  // caller sees truncation, not an I/O failure.
  static const uint8_t Empty = 0;
  return Data ? Data + Pos : &Empty;
}

void MemoryTraceSource::consume(size_t N) {
  assert(N <= Len - Pos && "consumed past the end");
  Pos += N;
}

//===----------------------------------------------------------------------===//
// MmapTraceSource
//===----------------------------------------------------------------------===//

MmapTraceSource::~MmapTraceSource() {
  if (Map)
    ::munmap(const_cast<uint8_t *>(Map), Len);
}

bool MmapTraceSource::open(const std::string &Path, std::string &Error) {
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0) {
    Error = Path + ": " + std::strerror(errno);
    return false;
  }
  struct stat St;
  if (::fstat(Fd, &St) != 0) {
    Error = Path + ": " + std::strerror(errno);
    ::close(Fd);
    return false;
  }
  if (!S_ISREG(St.st_mode)) {
    Error = Path + ": not a regular file (streams replay through the "
                   "buffered reader)";
    ::close(Fd);
    return false;
  }
  Len = static_cast<size_t>(St.st_size);
  if (Len > 0) {
    void *M = ::mmap(nullptr, Len, PROT_READ, MAP_PRIVATE, Fd, 0);
    if (M == MAP_FAILED) {
      Error = Path + ": mmap failed: " + std::strerror(errno);
      ::close(Fd);
      Len = 0;
      return false;
    }
    Map = static_cast<const uint8_t *>(M);
  }
  ::close(Fd);
  return true;
}

const uint8_t *MmapTraceSource::peek(size_t, size_t &Avail, std::string &) {
  Avail = Len - Pos;
  // An empty mapping still needs a non-null cursor for zero-length reads.
  static const uint8_t Empty = 0;
  return Map ? Map + Pos : &Empty;
}

void MmapTraceSource::consume(size_t N) {
  assert(N <= Len - Pos && "consumed past the end");
  Pos += N;
}

//===----------------------------------------------------------------------===//
// FdTraceSource
//===----------------------------------------------------------------------===//

FdTraceSource::FdTraceSource(int Fd, bool OwnsFd, size_t BufSize,
                             IoSyscalls *Sys)
    : Fd(Fd), OwnsFd(OwnsFd), Sys(Sys ? Sys : &IoSyscalls::system()),
      Buf(std::max<size_t>(BufSize, 4096)) {}

FdTraceSource::~FdTraceSource() {
  if (OwnsFd && Fd >= 0)
    ::close(Fd);
}

int FdTraceSource::openFile(const std::string &Path, std::string &Error) {
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    Error = Path + ": " + std::strerror(errno);
  return Fd;
}

const uint8_t *FdTraceSource::peek(size_t Min, size_t &Avail,
                                   std::string &Error) {
  if (Min > Buf.size()) {
    // A frame larger than the ring: grow once (bounded by the format's
    // oversized-frame check upstream).
    std::vector<uint8_t> Grown(Min);
    std::memcpy(Grown.data(), Buf.data() + Begin, End - Begin);
    End -= Begin;
    Begin = 0;
    Buf = std::move(Grown);
  } else if (Begin + Min > Buf.size()) {
    std::memmove(Buf.data(), Buf.data() + Begin, End - Begin);
    End -= Begin;
    Begin = 0;
  }
  while (End - Begin < Min && !Eof) {
    ssize_t N = Sys->read(Fd, Buf.data() + End, Buf.size() - End);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Error = std::strerror(errno);
      return nullptr;
    }
    if (N == 0) {
      Eof = true;
      break;
    }
    End += static_cast<size_t>(N);
  }
  Avail = End - Begin;
  return Buf.data() + Begin;
}

void FdTraceSource::consume(size_t N) {
  assert(N <= End - Begin && "consumed past the end");
  Begin += N;
}

//===----------------------------------------------------------------------===//
// TraceReader
//===----------------------------------------------------------------------===//

bool TraceReader::readHeader() {
  assert(!HeaderRead && "header read twice");
  size_t Min = 16;
  for (;;) {
    std::string IoErr;
    size_t Avail = 0;
    const uint8_t *P = Source.peek(Min, Avail, IoErr);
    if (!P) {
      Err = {TraceErrorKind::Io, Offset, "read failed: " + IoErr};
      return false;
    }
    size_t HeaderLen = 0;
    if (parseTraceHeader(P, Avail, Spec, HeaderLen, Err)) {
      Source.consume(HeaderLen);
      Offset = HeaderLen;
      HeaderRead = true;
      return true;
    }
    if (Err.needMoreData() && Avail >= Min) {
      // The buffer holds everything we asked for but the header is
      // longer: ask for more. The header is bounded by the name and
      // descriptor limits, so this terminates.
      Min = Avail + 512;
      continue;
    }
    return false; // Real failure, or the stream genuinely ends early.
  }
}

bool TraceReader::matchesStep(const CompiledStep &CS) {
  assert(HeaderRead && "match before readHeader");
  TraceSpec Expected = TraceSpec::fromStep(CS, Spec.ProcName,
                                           Spec.FrameInstants);
  std::string Diff = Spec.diff(Expected);
  if (Diff.empty())
    return true;
  Err = {TraceErrorKind::InterfaceMismatch, Offset,
         "trace interface does not match the compiled process: " + Diff};
  return false;
}

bool TraceReader::atEndOfStream() {
  std::string IoErr;
  size_t Avail = 0;
  if (!Source.peek(1, Avail, IoErr)) {
    Err = {TraceErrorKind::Io, Offset, "read failed: " + IoErr};
    return false;
  }
  if (Avail == 0)
    return true;
  Err = {TraceErrorKind::Malformed, Offset,
         "unexpected bytes after the trailer (the trailer must end the "
         "stream)"};
  return false;
}

TraceFrameStatus TraceReader::nextFrame(TraceFrame &F) {
  assert(HeaderRead && "frames before readHeader");
  size_t Min = TraceFrameHeaderBytes;
  for (;;) {
    std::string IoErr;
    size_t Avail = 0;
    const uint8_t *P = Source.peek(Min, Avail, IoErr);
    if (!P) {
      Err = {TraceErrorKind::Io, Offset, "read failed: " + IoErr};
      return TraceFrameStatus::Error;
    }
    size_t Consumed = 0;
    TraceFrameStatus St = decodeTraceFrame(Spec, P, Avail, Offset, F,
                                           Consumed, TotalInstants, Err);
    if (St == TraceFrameStatus::NeedMore) {
      if (Avail < Min)
        return TraceFrameStatus::Error; // Truncated: Err is positioned.
      // The frame header is visible; ask for its whole payload.
      uint32_t PayloadLen = static_cast<uint32_t>(P[0]) |
                            (static_cast<uint32_t>(P[1]) << 8) |
                            (static_cast<uint32_t>(P[2]) << 16) |
                            (static_cast<uint32_t>(P[3]) << 24);
      Min = TraceFrameHeaderBytes + PayloadLen;
      continue;
    }
    if (St == TraceFrameStatus::Error)
      return St;
    Source.consume(Consumed);
    Offset += Consumed;
    if (St == TraceFrameStatus::Frame) {
      if (F.Start != NextInstant) {
        Err = {TraceErrorKind::Malformed, Offset - Consumed,
               "frame starts at instant " + std::to_string(F.Start) +
                   " but the stream is at instant " +
                   std::to_string(NextInstant)};
        return TraceFrameStatus::Error;
      }
      NextInstant = F.Start + F.Count;
    } else if (TotalInstants != NextInstant) {
      Err = {TraceErrorKind::Malformed, Offset - Consumed,
             "trailer declares " + std::to_string(TotalInstants) +
                 " instants but frames covered " +
                 std::to_string(NextInstant)};
      return TraceFrameStatus::Error;
    } else if (!atEndOfStream()) {
      return TraceFrameStatus::Error;
    }
    return St;
  }
}
