//===--- Common.cpp -------------------------------------------------------===//

#include "Common.h"

#include "programs/Programs.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>

#include <ftw.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace perfbench;

int64_t perfbench::nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / V.size());
}

double perfbench::rateAt(double Work, const std::vector<double> &SampleMs) {
  double Ms = median(SampleMs);
  return Ms > 0 ? Work / (Ms / 1e3) : 0;
}

//===----------------------------------------------------------------------===//
// Host speed
//===----------------------------------------------------------------------===//

namespace {
/// Iterations of the probe loop: ~1 ms on the reference host.
constexpr unsigned ProbeIters = 120000;
constexpr unsigned ProbeTableSize = 1u << 14; // 64 KiB of uint32_t.
volatile uint64_t ProbeSink;
} // namespace

HostSpeed &HostSpeed::get() {
  static HostSpeed H;
  return H;
}

double HostSpeed::probe() {
  // Fixed contents, never written: every probe does exactly the same work.
  static const std::vector<uint32_t> Table = [] {
    std::vector<uint32_t> T(ProbeTableSize);
    uint64_t X = 0x9e3779b97f4a7c15ull;
    for (uint32_t &V : T)
      V = static_cast<uint32_t>(X = mixSeed(X, 1));
    return T;
  }();
  uint32_t Out[256] = {};
  int64_t T0 = nowNs();
  uint64_t X = 88172645463325252ull, Acc = 0;
  for (unsigned I = 0; I < ProbeIters; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    uint32_t V = Table[X & (ProbeTableSize - 1)];
    // Unpredictable, like an interpreter's dispatch.
    if (V & 1)
      Acc += V ^ X;
    else
      Acc -= V;
    Out[X >> 56] = static_cast<uint32_t>(Acc);
  }
  ProbeSink = Acc + Out[Acc & 255];
  LastMs = msBetween(T0, nowNs());
  TotalMs += LastMs;
  All.push_back(LastMs);
  return LastMs;
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

namespace {
/// Raw spans kept for the written log; aggregation continues past it.
constexpr size_t LogCap = 1u << 20;
} // namespace

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

void Tracer::setGroup(const std::string &Group) {
  GroupName = Group;
  auto It = std::find(Groups.begin(), Groups.end(), Group);
  if (It == Groups.end()) {
    Groups.push_back(Group);
    GroupId = static_cast<uint32_t>(Groups.size() - 1);
  } else {
    GroupId = static_cast<uint32_t>(It - Groups.begin());
  }
}

void Tracer::open(const char *Name) {
  int64_t Index = -1;
  if (Log.size() < LogCap) {
    Index = static_cast<int64_t>(Log.size());
    int64_t Parent = Stack.empty() ? -1 : Stack.back().LogIndex;
    Log.push_back({Parent, GroupId, Name, 0, 0});
  }
  Stack.push_back({Name, nowNs(), 0, Index});
}

void Tracer::close() {
  int64_t End = nowNs();
  Open O = Stack.back();
  Stack.pop_back();
  int64_t Dur = End - O.Start;
  if (O.LogIndex >= 0) {
    Log[O.LogIndex].Start = O.Start;
    Log[O.LogIndex].End = End;
  }
  if (!Stack.empty())
    Stack.back().ChildNs += Dur;
  Agg &A = Aggs[O.Name];
  for (SpanAgg *S : {&A.Total, &A.PerGroup[GroupId]}) {
    ++S->Count;
    S->TotalNs += Dur;
    S->SelfNs += Dur - O.ChildNs;
  }
}

void Tracer::rebuild() const {
  ByName.clear();
  ByGroup.clear();
  for (const auto &[Name, A] : Aggs) {
    SpanAgg &N = ByName[Name];
    N.Count += A.Total.Count;
    N.TotalNs += A.Total.TotalNs;
    N.SelfNs += A.Total.SelfNs;
    for (const auto &[G, S] : A.PerGroup) {
      SpanAgg &GA = ByGroup[{Groups[G], Name}];
      GA.Count += S.Count;
      GA.TotalNs += S.TotalNs;
      GA.SelfNs += S.SelfNs;
    }
  }
}

double Tracer::selfMs(const std::string &Name) const {
  const auto &M = byName();
  auto It = M.find(Name);
  return It == M.end() ? 0 : It->second.SelfNs / 1e6;
}

double Tracer::totalMs(const std::string &Name) const {
  const auto &M = byName();
  auto It = M.find(Name);
  return It == M.end() ? 0 : It->second.TotalNs / 1e6;
}

double Tracer::selfMsIn(const std::string &Name,
                        const std::string &GroupPrefix) const {
  double Ms = 0;
  for (const auto &[Key, A] : byGroup())
    if (Key.second == Name && Key.first.rfind(GroupPrefix, 0) == 0)
      Ms += A.SelfNs / 1e6;
  return Ms;
}

double Tracer::totalMsIn(const std::string &Name,
                         const std::string &GroupPrefix) const {
  double Ms = 0;
  for (const auto &[Key, A] : byGroup())
    if (Key.second == Name && Key.first.rfind(GroupPrefix, 0) == 0)
      Ms += A.TotalNs / 1e6;
  return Ms;
}

bool Tracer::writeLog(const std::string &Path) const {
  std::ofstream Out(Path);
  Out << "id\tparent\tgroup\tname\tstart_ns\tend_ns\n";
  for (size_t I = 0; I < Log.size(); ++I) {
    const Rec &R = Log[I];
    Out << I << '\t' << R.Parent << '\t' << Groups[R.Group] << '\t' << R.Name
        << '\t' << R.Start << '\t' << R.End << '\n';
  }
  return static_cast<bool>(Out);
}

//===----------------------------------------------------------------------===//
// Result
//===----------------------------------------------------------------------===//

void Result::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  for (auto &M : Metrics)
    if (M.first == Name) {
      M.second = {Value, Unit};
      return;
    }
  Metrics.push_back({Name, {Value, Unit}});
}

void Result::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (!Ok) {
    ++Failed;
    std::fprintf(stderr, "perfbench: check failed: %s\n", What.c_str());
  }
}

std::string perfbench::fmt(const char *Format, ...) {
  char Buf[1024];
  va_list Ap;
  va_start(Ap, Format);
  std::vsnprintf(Buf, sizeof(Buf), Format, Ap);
  va_end(Ap);
  return Buf;
}

//===----------------------------------------------------------------------===//
// Process helpers
//===----------------------------------------------------------------------===//

double perfbench::selfPeakRssMb() {
  struct rusage RU;
  ::getrusage(RUSAGE_SELF, &RU);
  return RU.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux.
}

bool perfbench::makeDirs(const std::string &Path) {
  for (size_t I = 1; I <= Path.size(); ++I)
    if (I == Path.size() || Path[I] == '/')
      ::mkdir(Path.substr(0, I).c_str(), 0755);
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 && S_ISDIR(St.st_mode);
}

void perfbench::removeTree(const std::string &Path) {
  if (Path.empty())
    return;
  ::nftw(
      Path.c_str(),
      [](const char *P, const struct stat *, int, struct FTW *) {
        return ::remove(P);
      },
      16, FTW_DEPTH | FTW_PHYS);
}

uint64_t perfbench::fileBytes(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 ? static_cast<uint64_t>(St.st_size)
                                        : 0;
}

PrivateDir::PrivateDir(const std::string &Prefix) {
  static std::atomic<unsigned> Counter{0};
  char Cwd[4096];
  std::string Base = ::getcwd(Cwd, sizeof(Cwd)) ? Cwd : ".";
  Path = Base + "/" + Prefix + "." + std::to_string(Counter.fetch_add(1));
  removeTree(Path);
  makeDirs(Path);
}

std::string perfbench::builtinSource(const std::string &Name) {
  if (Name == "FIG5_ALARM")
    return sigc::alarmFigure5Source();
  for (const sigc::Figure13Program &P : sigc::figure13Suite())
    if (P.Name == Name)
      return P.Source;
  return std::string();
}

uint64_t perfbench::mixSeed(uint64_t Seed, uint64_t Salt) {
  uint64_t Z = Seed + 0x9E3779B97F4A7C15ull * (Salt + 1);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}
