//===--- Common.h - Shared benchmark infrastructure -------------*- C++-*-===//
///
/// \file
/// Everything the three workloads share: command-line arguments, the
/// monotonic clock, sample statistics, the span tracer used by traced
/// runs, the result record printed as the final JSON line, and small
/// process helpers (peak RSS, private directories, program sources).
///
/// The tracer times the benchmark's own calls into each module's public
/// functions; nothing inside the program is instrumented. A disabled
/// tracer costs one branch per span.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir; ///< Private work directory, removed at exit.
};

/// Monotonic nanoseconds.
int64_t nowNs();
inline double msBetween(int64_t A, int64_t B) { return (B - A) / 1e6; }

/// Median of \p V (0 when empty).
double median(std::vector<double> V);
/// Geometric mean of positive values (0 when empty).
double geomean(const std::vector<double> &V);

/// \p Work units per second at the median of \p SampleMs (0 when empty).
double rateAt(double Work, const std::vector<double> &SampleMs);

//===----------------------------------------------------------------------===//
// Host speed
//===----------------------------------------------------------------------===//

/// The speed of the host while a sample was taken. On a shared virtual
/// machine the speed of a vCPU moved by 10-40% between runs and within a
/// run (other tenants, steal, clock frequency), and the medians of raw
/// sample times moved with it. So every sample the end-to-end rates come
/// from is scaled to a reference speed: a fixed probe — integer, branch
/// and 64 KiB-table work that shares no code with signalc — runs just
/// before the sample, and the sample's time is multiplied by
/// ProbeRefMs / (the probe's time). A rate from scaled samples is the rate
/// on a host where the probe takes ProbeRefMs. A change to signalc moves
/// it; a slower or busier host mostly does not.
class HostSpeed {
public:
  static HostSpeed &get();

  /// The probe's time on the reference host, roughly: a shared 4-vCPU
  /// x86-64 virtual machine.
  static constexpr double ProbeRefMs = 1.0;

  /// Runs the probe; later scale() calls use its time. \returns its ms.
  double probe();
  /// \p Ms scaled to the reference speed by the last probe.
  double scale(double Ms) const { return Ms * ProbeRefMs / LastMs; }
  /// Every probe time of the run.
  const std::vector<double> &probeMs() const { return All; }
  /// The time spent probing so far, which pass times leave out.
  double totalMs() const { return TotalMs; }

private:
  double LastMs = ProbeRefMs;
  double TotalMs = 0;
  std::vector<double> All;
};

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// Per-name aggregate of closed spans.
struct SpanAgg {
  uint64_t Count = 0;
  int64_t TotalNs = 0;
  int64_t SelfNs = 0; ///< Duration minus the time covered by child spans.
};

/// Records spans when enabled: one per call into a layer, with its
/// parent and the group (program or leg) it belongs to. Aggregates
/// online; the raw log is kept in memory up to a cap and written out by
/// writeLog() at exit.
class Tracer {
public:
  static Tracer &get();

  void enable(bool On) { Enabled = On; }
  bool enabled() const { return Enabled; }

  /// Spans opened from now on belong to \p Group (a program or a leg).
  void setGroup(const std::string &Group);

  void open(const char *Name);
  void close();

  /// Aggregates by span name, over every group.
  const std::map<std::string, SpanAgg> &byName() const {
    rebuild();
    return ByName;
  }
  /// Aggregates by (group, span name).
  const std::map<std::pair<std::string, std::string>, SpanAgg> &
  byGroup() const {
    rebuild();
    return ByGroup;
  }
  /// Self time of \p Name in ms summed over every group (0 if absent).
  double selfMs(const std::string &Name) const;
  double totalMs(const std::string &Name) const;
  /// The same, over the groups whose name starts with \p GroupPrefix.
  double selfMsIn(const std::string &Name, const std::string &GroupPrefix) const;
  double totalMsIn(const std::string &Name,
                   const std::string &GroupPrefix) const;

  /// Writes the raw span log as TSV (id, parent, group, name, start,
  /// end in ns). \returns false on an I/O failure.
  bool writeLog(const std::string &Path) const;

private:
  struct Open {
    const char *Name;
    int64_t Start;
    int64_t ChildNs;
    int64_t LogIndex; ///< -1 when past the log cap.
  };
  struct Agg {
    SpanAgg Total;
    std::map<uint32_t, SpanAgg> PerGroup;
  };
  struct Rec {
    int64_t Parent;
    uint32_t Group;
    const char *Name;
    int64_t Start;
    int64_t End;
  };
  bool Enabled = false;
  std::string GroupName = "-";
  uint32_t GroupId = 0;
  std::vector<std::string> Groups{"-"};
  std::vector<Open> Stack;
  std::vector<Rec> Log;
  /// Keyed by the span name's address: names are string literals.
  std::map<const char *, Agg> Aggs;
  mutable std::map<std::string, SpanAgg> ByName;
  mutable std::map<std::pair<std::string, std::string>, SpanAgg> ByGroup;
  void rebuild() const;
};

/// RAII span; no-op when tracing is off.
class Span {
public:
  explicit Span(const char *Name) : On(Tracer::get().enabled()) {
    if (On)
      Tracer::get().open(Name);
  }
  ~Span() {
    if (On)
      Tracer::get().close();
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  bool On;
};

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

/// What one run reports. Mismatches and failed operations are counted
/// in Failed (and described on stderr); Attempted counts every checked
/// operation.
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Name -> (value, unit), in insertion order of the metric lists.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Metrics;
  /// Human-readable report lines printed before the JSON line.
  std::vector<std::string> Report;

  void metric(const std::string &Name, double Value, const std::string &Unit);
  /// Counts one checked operation; \p Ok false counts a failure and
  /// prints \p What to stderr.
  void check(bool Ok, const std::string &What);
  void line(const std::string &L) { Report.push_back(L); }
};

/// printf into a std::string.
std::string fmt(const char *Format, ...)
    __attribute__((format(printf, 1, 2)));

//===----------------------------------------------------------------------===//
// Process helpers
//===----------------------------------------------------------------------===//

/// Peak resident set of this process in MB.
double selfPeakRssMb();

/// Creates \p Path (and parents). \returns false on failure.
bool makeDirs(const std::string &Path);
/// Removes \p Path recursively (no error if absent).
void removeTree(const std::string &Path);
/// Size of file \p Path in bytes (0 if absent).
uint64_t fileBytes(const std::string &Path);

/// A fresh private directory under the work directory, removed with its
/// contents on destruction.
class PrivateDir {
public:
  explicit PrivateDir(const std::string &Prefix);
  ~PrivateDir() { removeTree(Path); }
  PrivateDir(const PrivateDir &) = delete;
  PrivateDir &operator=(const PrivateDir &) = delete;
  const std::string &path() const { return Path; }

private:
  std::string Path;
};

/// The source of builtin program \p Name (FIG5_ALARM or a Figure-13
/// program); empty when unknown.
std::string builtinSource(const std::string &Name);

/// splitmix64: derives independent sub-seeds from the workload seed.
uint64_t mixSeed(uint64_t Seed, uint64_t Salt);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
