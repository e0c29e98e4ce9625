//===- Common.h - Shared pieces of the benchmark program --------*- C++ -*-===//
//
// Part of leapfrog-cc's benchmark (perfbench/). Not linked into the library.
//
//===----------------------------------------------------------------------===//

#ifndef LEAPFROG_PERFBENCH_COMMON_H
#define LEAPFROG_PERFBENCH_COMMON_H

#include "obs/Trace.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// The command line, as the runner passes it on.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string CorpusDir; ///< examples/corpus of the checkout.
  std::string TraceDir;  ///< Where traced runs write their timelines.
};

/// A metric BENCHMARK.json declares.
struct MetricSpec {
  const char *Name;
  const char *Unit;
};

/// What one run prints: the correctness verdict, the attempted/failed
/// counts, and named metrics (printed in insertion order).
class Report {
public:
  void metric(const std::string &Name, double Value, const char *Unit);
  /// This report with its metrics put in the order of \p Specs. A metric
  /// missing here reads 0 when \p ZeroIfMissing, and is a failure
  /// otherwise; so is a metric \p Specs does not declare, or a unit that
  /// disagrees with the declaration.
  template <size_t N>
  Report withMetricsIn(const MetricSpec (&Specs)[N], bool ZeroIfMissing) const {
    return reorder(Specs, N, ZeroIfMissing);
  }
  /// One attempted operation (a check, a request, a gate).
  void attempt(uint64_t N = 1) { Attempted += N; }
  /// Marks one attempted operation failed and says why on stderr.
  void fail(const std::string &Why);
  /// attempt() plus, when !Ok, fail(Why): a gate is an attempted check.
  void gate(bool Ok, const std::string &Why);

  bool correct() const { return Failed == 0; }
  /// The one-line JSON object the runner forwards as the last line.
  std::string json() const;

private:
  Report reorder(const MetricSpec *Specs, size_t N, bool ZeroIfMissing) const;

  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Metrics;
};

using SteadyClock = std::chrono::steady_clock;

inline double secondsSince(SteadyClock::time_point Start) {
  return std::chrono::duration<double>(SteadyClock::now() - Start).count();
}

/// Nearest-rank percentile (P in [0, 1]) of \p V; 0 for an empty sample.
double percentile(std::vector<double> V, double P);
inline double median(std::vector<double> V) {
  return percentile(std::move(V), 0.5);
}
/// Arithmetic mean of \p V; 0 for an empty sample.
double mean(const std::vector<double> &V);

/// Peak resident set size of this process so far, in MiB.
double peakRssMb();

bool readFile(const std::string &Path, std::string &Out);

/// Per-span-name totals of a recorded timeline: B/E pairs are matched per
/// thread, and each span's duration is added to its name (all threads).
/// Self times (duration minus child spans) are kept for all threads and
/// for one chosen thread; per thread they partition the top-level spans
/// exactly.
struct SpanTotals {
  std::map<std::string, double> Seconds;
  std::map<std::string, double> Self;
  std::map<std::string, double> MainSelf;

  double seconds(const std::string &Name) const;
  double mainSelf(const std::string &Name) const;
};

/// Totals of \p Sink's events, with self times on thread \p MainTid
/// (obs::currentThreadId numbering); when \p Path is non-empty the
/// timeline is also written there (Chrome trace_event JSON, opens in
/// Perfetto).
SpanTotals spanTotals(const leapfrog::obs::TraceSink &Sink,
                      const std::string &Path, uint32_t MainTid);

/// One row of a traced-run layer table.
struct LayerRow {
  std::string Layer;
  double Seconds;
};

/// Prints a layer table whose rows, plus an explicit `unattributed` row,
/// add up to \p Total; returns the unattributed seconds.
double printLayerTable(const std::string &Title, double Total,
                       const std::vector<LayerRow> &Rows);

} // namespace perfbench

#endif // LEAPFROG_PERFBENCH_COMMON_H
