//===- Common.cpp - Shared pieces of the benchmark program ----------------===//
//
// Part of leapfrog-cc's benchmark (perfbench/). Not linked into the library.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "serve/Json.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace leapfrog;

namespace perfbench {

void Report::metric(const std::string &Name, double Value, const char *Unit) {
  Metrics.push_back({Name, {Value, Unit}});
}

void Report::fail(const std::string &Why) {
  ++Failed;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", Why.c_str());
}

void Report::gate(bool Ok, const std::string &Why) {
  attempt();
  if (!Ok)
    fail(Why);
}

Report Report::reorder(const MetricSpec *Specs, size_t N,
                       bool ZeroIfMissing) const {
  Report Out;
  Out.Attempted = Attempted;
  Out.Failed = Failed;
  for (size_t I = 0; I < N; ++I) {
    auto It = std::find_if(Metrics.begin(), Metrics.end(), [&](const auto &M) {
      return M.first == Specs[I].Name;
    });
    if (It == Metrics.end()) {
      if (!ZeroIfMissing)
        Out.fail(std::string("metric ") + Specs[I].Name + " was not measured");
      Out.metric(Specs[I].Name, 0, Specs[I].Unit);
      continue;
    }
    if (It->second.second != Specs[I].Unit)
      Out.fail("metric " + It->first + " has unit " + It->second.second);
    Out.metric(It->first, It->second.first, Specs[I].Unit);
  }
  for (const auto &M : Metrics)
    if (std::none_of(Specs, Specs + N,
                     [&](const MetricSpec &S) { return M.first == S.Name; }))
      Out.fail("metric " + M.first + " is not declared in BENCHMARK.json");
  return Out;
}

std::string Report::json() const {
  std::string Out = "{\"correct\": ";
  Out += correct() ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(std::max<uint64_t>(Attempted, 1));
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  bool First = true;
  for (const auto &M : Metrics) {
    char Value[64];
    double V = std::isfinite(M.second.first) ? M.second.first : 0.0;
    std::snprintf(Value, sizeof(Value), "%.17g", V);
    if (!First)
      Out += ", ";
    First = false;
    Out += "\"" + M.first + "\": {\"value\": " + Value + ", \"unit\": \"" +
           M.second.second + "\"}";
  }
  Out += "}}";
  return Out;
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Rank = std::ceil(P * double(V.size()));
  size_t Idx = Rank < 1 ? 0 : size_t(Rank) - 1;
  return V[std::min(Idx, V.size() - 1)];
}

double mean(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return V.empty() ? 0 : S / double(V.size());
}

double peakRssMb() {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return double(Usage.ru_maxrss) / 1024.0;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream Ss;
  Ss << In.rdbuf();
  Out = Ss.str();
  return true;
}

namespace {

double lookup(const std::map<std::string, double> &M,
              const std::string &Name) {
  auto It = M.find(Name);
  return It == M.end() ? 0.0 : It->second;
}

/// An open span: name, begin timestamp (microseconds), child time so far.
struct OpenSpan {
  std::string Name;
  int64_t Begin;
  int64_t Children;
};

} // namespace

double SpanTotals::seconds(const std::string &Name) const {
  return lookup(Seconds, Name);
}

double SpanTotals::mainSelf(const std::string &Name) const {
  return lookup(MainSelf, Name);
}

SpanTotals spanTotals(const obs::TraceSink &Sink, const std::string &Path,
                      uint32_t MainTid) {
  std::string Text = Sink.toChromeJson();
  if (!Path.empty()) {
    std::ofstream Out(Path);
    Out << Text << "\n";
  }
  SpanTotals T;
  serve::Json Doc;
  std::string Err;
  if (!serve::Json::parse(Text, Doc, &Err)) {
    std::fprintf(stderr, "perfbench: unreadable trace: %s\n", Err.c_str());
    return T;
  }
  std::map<int64_t, std::vector<OpenSpan>> Open; // Per thread.
  for (const serve::Json &E : Doc.get("traceEvents").items()) {
    const std::string &Phase = E.get("ph").asString();
    int64_t Tid = E.get("tid").asInt();
    int64_t Ts = E.get("ts").asInt();
    std::vector<OpenSpan> &Stack = Open[Tid];
    if (Phase == "B") {
      Stack.push_back({E.get("name").asString(), Ts, 0});
    } else if (Phase == "E" && !Stack.empty()) {
      OpenSpan Span = Stack.back();
      Stack.pop_back();
      int64_t Duration = Ts - Span.Begin;
      T.Seconds[Span.Name] += double(Duration) / 1e6;
      if (!Stack.empty())
        Stack.back().Children += Duration;
      double Self = double(Duration - Span.Children) / 1e6;
      T.Self[Span.Name] += Self;
      if (Tid == int64_t(MainTid))
        T.MainSelf[Span.Name] += Self;
    }
  }
  return T;
}

double printLayerTable(const std::string &Title, double Total,
                       const std::vector<LayerRow> &Rows) {
  std::fprintf(stderr, "\nlayer table: %s\n", Title.c_str());
  std::fprintf(stderr, "  %-44s %12s %8s\n", "layer", "seconds", "share");
  double Attributed = 0;
  for (const LayerRow &R : Rows) {
    Attributed += R.Seconds;
    std::fprintf(stderr, "  %-44s %12.6f %7.1f%%\n", R.Layer.c_str(),
                 R.Seconds, Total > 0 ? 100.0 * R.Seconds / Total : 0.0);
  }
  double Unattributed = Total - Attributed;
  std::fprintf(stderr, "  %-44s %12.6f %7.1f%%\n", "unattributed",
               Unattributed, Total > 0 ? 100.0 * Unattributed / Total : 0.0);
  std::fprintf(stderr, "  %-44s %12.6f %7.1f%%\n", "total", Total,
               100.0);
  return Unattributed;
}

} // namespace perfbench
