//===- main.cpp - The benchmark program's command line --------------------===//
//
// Part of leapfrog-cc's benchmark (perfbench/). Not linked into the library.
//
//===----------------------------------------------------------------------===//
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --corpus DIR [--trace-dir DIR]
//
// Runs one workload and prints, as the last line of standard output, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (a layer a workload does not exercise reports 0). Every
// human-readable line, the layer tables included, goes to standard error.
// perfbench/run.py builds this program and passes the arguments on.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

/// Must match BENCHMARK.json's end_to_end list.
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"pair_s.enterprise", "s"},
    {"pair_s.variable_length_parsing", "s"},
    {"pair_s.service_provider", "s"},
    {"throughput_rps", "1/s"},
    {"latency_ms.p50", "ms"},
    {"latency_ms.p99", "ms"},
    {"peak_rss_mb", "MB"},
};

/// Must match BENCHMARK.json's per_layer list.
const MetricSpec kPerLayer[] = {
    {"core.self_s", "s"},
    {"core.self_share", "ratio"},
    {"core.iterations", "count"},
    {"core.extends", "count"},
    {"core.skips", "count"},
    {"core.final_conjuncts", "count"},
    {"core.peak_frontier", "count"},
    {"core.formula_nodes", "count"},
    {"core.reach_us", "us"},
    {"core.wp_us_per_conjunct", "us"},
    {"logic.lower_us_per_obligation", "us"},
    {"logic.premises_kept_ratio", "ratio"},
    {"smt.premise_s", "s"},
    {"smt.query_s", "s"},
    {"smt.query_us.p50", "us"},
    {"smt.query_us.p99", "us"},
    {"smt.queries", "count"},
    {"smt.round_trips", "count"},
    {"smt.premise_cache_hit_ratio", "ratio"},
    {"smt.sat_vars", "count"},
    {"smt.sat_clauses", "count"},
    {"smt.arena_peak_bytes", "bytes"},
    {"smt.peak_learnts", "count"},
    {"parallel.requery_ratio", "ratio"},
    {"parallel.worker_busy_share", "ratio"},
    {"parallel.merge_share", "ratio"},
    {"parallel.wait_share", "ratio"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.coalesced", "count"},
    {"serve.hit_us.p50", "us"},
    {"serve.miss_us.p50", "us"},
    {"serve.wire_us", "us"},
    {"serve.latency_samples", "count"},
    {"cert.verify_us", "us"},
    {"cert.bytes", "bytes"},
    {"frontend.us_per_check", "us"},
    {"layer.unattributed_share", "ratio"},
    {"trace.overhead_share", "ratio"},
};

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload applicability-seq|applicability-par|"
               "serve-mixed --seed N --seconds S --trace 0|1 --corpus DIR "
               "[--trace-dir DIR]\n",
               Argv0);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage(Argv[0]);
    std::string V = Argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(V.c_str(), nullptr);
    else if (A == "--trace")
      O.Trace = V != "0";
    else if (A == "--corpus")
      O.CorpusDir = V;
    else if (A == "--trace-dir")
      O.TraceDir = V;
    else
      return usage(Argv[0]);
  }
  if (O.CorpusDir.empty())
    return usage(Argv[0]);

  Report Rep;
  int Rc;
  if (O.Workload == "applicability-seq") {
    Rc = runApplicability(O, 1, Rep);
  } else if (O.Workload == "applicability-par") {
    size_t Cores = std::max(1u, std::thread::hardware_concurrency());
    Rc = runApplicability(O, std::min<size_t>(4, Cores), Rep);
  } else if (O.Workload == "serve-mixed") {
    Rc = runServeMixed(O, Rep);
  } else {
    return usage(Argv[0]);
  }
  if (Rc != 0)
    return Rc;

  // Print the workload's metrics in BENCHMARK.json order. An end-to-end
  // metric is always measured; a per-layer one a workload does not
  // exercise reads 0.
  Report Out = O.Trace ? Rep.withMetricsIn(kPerLayer, /*ZeroIfMissing=*/true)
                       : Rep.withMetricsIn(kEndToEnd, /*ZeroIfMissing=*/false);
  std::fflush(stderr);
  std::printf("%s\n", Out.json().c_str());
  return 0;
}
