//===- Applicability.cpp - The applicability-seq / -par workloads ---------===//
//
// Part of leapfrog-cc's benchmark (perfbench/). Not linked into the library.
//
//===----------------------------------------------------------------------===//
//
// The one-shot verification user of the paper's Table 2: the corpus pairs
// Service Provider, Enterprise and Variable-length parsing, decided in a
// row (kPassSchedule) on a warm core::Engine (jobs=1 for
// applicability-seq, min(4, nproc) for applicability-par). Every verdict
// is checked against Table 2 (all three are equivalent), and the
// deterministic counters must repeat exactly between decisions of a pair;
// applicability-par's must also equal a sequential reference run's.
//
// The traced run (--trace 1) decides each pair once per pass and adds:
//  * the decorator self-check: an undecorated run's counters equal the
//    decorated run's (jobs 1 on -seq, jobs N on -par);
//  * a traced pass with a fresh obs::TraceSink per check, whose
//    counters must equal the untraced pass (passivity), and whose
//    main-thread self times give the layer table;
//  * a replay over the final relation timing computeReach,
//    weakestPrecondition per conjunct, lowerPure per conjunct and
//    lowerEntailment per sampled obligation, which splits the check's
//    own (non-solver, non-parallel) time into core and logic rows.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Common.h"
#include "TimedSolver.h"

#include "core/Engine.h"
#include "core/Reachability.h"
#include "core/WeakestPrecondition.h"
#include "logic/Lower.h"

#include <algorithm>
#include <cstdio>
#include <thread>

using namespace leapfrog;

namespace perfbench {
namespace {

const auto &kPairs = kApplicabilityPairs;
constexpr size_t kNumPairs = kNumApplicabilityPairs;

/// Deterministic budget: every pair converges in under 7000 iterations.
constexpr size_t kMaxIterations = 50000;

/// Obligations (evenly spaced) the lowerEntailment replay samples. WP and
/// lowerPure replay every conjunct, in relation order: a sparse sample
/// overstates their per-conjunct cost by up to 2x.
constexpr size_t kLowerSamples = 48;

struct Counters {
  size_t Iterations = 0, Extends = 0, Skips = 0, FinalConjuncts = 0,
         PeakFrontier = 0, FormulaNodes = 0, SmtQueries = 0;

  explicit Counters(const core::CheckStats &S)
      : Iterations(S.Iterations), Extends(S.Extends), Skips(S.Skips),
        FinalConjuncts(S.FinalConjuncts), PeakFrontier(S.PeakFrontier),
        FormulaNodes(S.FormulaNodes), SmtQueries(S.SmtQueries) {}

  /// The four counters every engine must agree on (the parallel engine
  /// re-derives the sequential decision stream; only queries differ).
  bool sameDecisions(const Counters &O) const {
    return Iterations == O.Iterations && Extends == O.Extends &&
           Skips == O.Skips && FinalConjuncts == O.FinalConjuncts;
  }
  bool operator==(const Counters &O) const {
    return sameDecisions(O) && PeakFrontier == O.PeakFrontier &&
           FormulaNodes == O.FormulaNodes && SmtQueries == O.SmtQueries;
  }
  std::string str() const {
    char Buf[200];
    std::snprintf(Buf, sizeof(Buf),
                  "iterations %zu extends %zu skips %zu conjuncts %zu "
                  "peak_frontier %zu nodes %zu queries %zu",
                  Iterations, Extends, Skips, FinalConjuncts, PeakFrontier,
                  FormulaNodes, SmtQueries);
    return Buf;
  }
};

/// The deterministic SolverStats fields the decorator must not disturb.
bool sameSolverWork(const smt::SolverStats &A, const smt::SolverStats &B) {
  return A.Queries == B.Queries && A.RoundTrips == B.RoundTrips &&
         A.SessionPremises == B.SessionPremises &&
         A.PremiseCacheHits == B.PremiseCacheHits &&
         A.TotalSatVars == B.TotalSatVars &&
         A.TotalSatClauses == B.TotalSatClauses;
}

/// One engine plus, when decorated, the timing decorator it runs on.
struct Rig {
  std::unique_ptr<TimedSolver> Timed; ///< Must outlive Engine.
  std::unique_ptr<core::Engine> Engine;
};

Rig makeRig(size_t Jobs, bool Decorated) {
  Rig R;
  core::EngineConfig Config;
  Config.Jobs = Jobs;
  if (Decorated) {
    R.Timed = std::make_unique<TimedSolver>(
        std::make_unique<smt::BitBlastSolver>());
    Config.Solver = R.Timed.get();
  }
  std::string Err;
  R.Engine = core::Engine::create(Config, &Err);
  if (!R.Engine)
    std::fprintf(stderr, "perfbench: engine: %s\n", Err.c_str());
  return R;
}

bool loadRequest(const std::string &Dir, const std::string &Stem,
                 core::CheckRequest &Out) {
  std::string L, R;
  if (!readFile(Dir + "/" + Stem + "_left.lfp", L) ||
      !readFile(Dir + "/" + Stem + "_right.lfp", R)) {
    std::fprintf(stderr, "perfbench: cannot read corpus pair '%s' in %s\n",
                 Stem.c_str(), Dir.c_str());
    return false;
  }
  core::CheckOptions Options;
  Options.MaxIterations = kMaxIterations;
  std::vector<std::string> Errors;
  if (!core::checkRequestFromSurface(L, R, Options, Out, Errors)) {
    for (const std::string &E : Errors)
      std::fprintf(stderr, "perfbench: %s: %s\n", Stem.c_str(), E.c_str());
    return false;
  }
  return true;
}

/// What one check of one pair produced.
struct CheckRecord {
  core::CheckResult Result;
  double Seconds = 0;
  smt::SolverStats Solver;  ///< The primary's stats for this check.
  SolverTimes Primary;      ///< Decorator times on the checking thread.
  SolverTimes Workers;      ///< Σ over warm worker decorators.
};

/// Decides \p Req once on \p R, collecting the per-check solver records.
CheckRecord checkOnce(Rig &R, const core::CheckRequest &Req) {
  CheckRecord C;
  R.Engine->solver().resetStats();
  if (R.Timed)
    R.Timed->resetTimes();
  SteadyClock::time_point Start = SteadyClock::now();
  {
    obs::ScopedSpan Span("bench.core.check", "bench");
    C.Result = R.Engine->check(Req);
  }
  C.Seconds = secondsSince(Start);
  C.Solver = R.Engine->solver().stats();
  if (R.Timed)
    C.Primary = R.Timed->times();
  for (size_t I = 0; I < R.Engine->warmWorkerCount(); ++I)
    if (auto *W = dynamic_cast<TimedSolver *>(R.Engine->warmWorker(I))) {
      C.Workers.add(W->times());
      W->resetTimes();
    }
  return C;
}

/// The workload's inputs and its warm engine: everything a user pays
/// before the first timed check.
struct Setup {
  std::vector<core::CheckRequest> Requests;
  Rig Engine;
};

bool setUp(const RunOptions &O, size_t Jobs, Setup &S) {
  S.Requests.assign(kNumPairs, core::CheckRequest());
  for (size_t I = 0; I < kNumPairs; ++I)
    if (!loadRequest(O.CorpusDir, kPairs[I], S.Requests[I]))
      return false;
  S.Engine = makeRig(Jobs, /*Decorated=*/true);
  if (!S.Engine.Engine)
    return false;
  // Warm the engine: at jobs > 1 the first check spawns the worker
  // backends and parks the pool, which later checks reuse.
  core::CheckRequest Warm;
  if (!loadRequest(O.CorpusDir, "state_rearrangement", Warm))
    return false;
  return S.Engine.Engine->check(Warm).V == core::Verdict::Equivalent;
}

/// One pass: per pair, the first decision's record with Seconds set to
/// the mean over the pair's decisions.
struct Pass {
  std::vector<CheckRecord> Pairs;
  size_t Decisions = 0;
};

/// Runs one pass in kPassSchedule order (each pair once, in pair order,
/// when !\p Repeat) and checks every verdict and that repeats agree.
Pass runPass(Rig &R, const Setup &S, Report &Rep, bool Repeat) {
  static const size_t Once[] = {0, 1, 2};
  std::vector<size_t> Order(Repeat ? std::begin(kPassSchedule) : Once,
                            Repeat ? std::end(kPassSchedule) : Once + 3);
  Pass P;
  P.Pairs.resize(kNumPairs);
  std::vector<std::vector<double>> Seconds(kNumPairs);
  for (size_t I : Order) {
    CheckRecord C = checkOnce(R, S.Requests[I]);
    Seconds[I].push_back(C.Seconds);
    ++P.Decisions;
    const core::CheckResult &Res = C.Result;
    Rep.attempt();
    if (Res.V != core::Verdict::Equivalent)
      Rep.fail(std::string(kPairs[I]) +
               ": expected equivalent (Table 2), got verdict " +
               std::to_string(int(Res.V)) + " " + Res.FailureReason);
    if (Seconds[I].size() == 1)
      P.Pairs[I] = std::move(C);
    else
      Rep.gate(Counters(Res.Stats) == Counters(P.Pairs[I].Result.Stats),
               std::string(kPairs[I]) + ": counters changed between repeats");
  }
  for (size_t I = 0; I < kNumPairs; ++I)
    P.Pairs[I].Seconds = mean(Seconds[I]);
  return P;
}

/// Sequential reference counters: one undecorated jobs=1 engine per pair,
/// the three pairs decided concurrently, outside every timed region.
std::vector<Counters> sequentialReference(const Setup &S) {
  std::vector<Counters> Out(kNumPairs, Counters(core::CheckStats()));
  std::vector<std::thread> Threads;
  for (size_t I = 0; I < kNumPairs; ++I)
    Threads.emplace_back([&S, &Out, I] {
      Rig R = makeRig(1, /*Decorated=*/false);
      if (R.Engine)
        Out[I] = Counters(R.Engine->check(S.Requests[I]).Stats);
    });
  for (std::thread &T : Threads)
    T.join();
  return Out;
}

/// Replay timings over one pair's final relation.
struct Replay {
  double ReachUs = 0;
  double WpUsPerConjunct = 0;
  double LowerPureUsPerFormula = 0;
  double LowerUsPerObligation = 0;
  size_t PremisesKept = 0, PremisesTotal = 0;
};

Replay replay(const core::CheckRequest &Req, const core::CheckResult &Res) {
  Replay Out;
  const p4a::Automaton &L = Req.Left;
  const p4a::Automaton &R = Req.Right;
  const std::vector<logic::GuardedFormula> &Rel = Res.Certificate.Relation;

  std::vector<double> Reach;
  std::vector<logic::TemplatePair> Pairs;
  for (int Rep = 0; Rep < 3; ++Rep) {
    obs::ScopedSpan Span("bench.core.reach", "bench");
    SteadyClock::time_point Start = SteadyClock::now();
    Pairs = core::computeReach(L, R, Req.Spec.TP, /*UseLeaps=*/true);
    Reach.push_back(secondsSince(Start) * 1e6);
  }
  Out.ReachUs = median(Reach);
  if (Rel.empty())
    return Out;

  std::vector<logic::GuardedFormula> Obligations;
  size_t Fresh = 0;
  SteadyClock::time_point Start = SteadyClock::now();
  {
    obs::ScopedSpan Span("bench.core.wp", "bench");
    for (const logic::GuardedFormula &G : Rel)
      for (logic::GuardedFormula &W :
           core::weakestPrecondition(L, R, G, Pairs, /*UseLeaps=*/true, Fresh))
        Obligations.push_back(std::move(W));
  }
  Out.WpUsPerConjunct = secondsSince(Start) * 1e6 / double(Rel.size());

  Start = SteadyClock::now();
  {
    obs::ScopedSpan Span("bench.logic.lower_pure", "bench");
    for (const logic::GuardedFormula &G : Rel)
      (void)logic::lowerPure(L, R, G.TP, G.Phi);
  }
  Out.LowerPureUsPerFormula = secondsSince(Start) * 1e6 / double(Rel.size());

  size_t Samples = std::min(kLowerSamples, Obligations.size());
  if (Samples == 0)
    return Out;
  Start = SteadyClock::now();
  {
    obs::ScopedSpan Span("bench.logic.lower_entailment", "bench");
    for (size_t K = 0; K < Samples; ++K) {
      const logic::GuardedFormula &G =
          Obligations[K * Obligations.size() / Samples];
      logic::LowerResult LR = logic::lowerEntailment(L, R, Rel, G);
      Out.PremisesKept += LR.PremisesKept;
      Out.PremisesTotal += LR.PremisesTotal;
    }
  }
  Out.LowerUsPerObligation = secondsSince(Start) * 1e6 / double(Samples);
  return Out;
}

/// Per-thread self times of one traced check, split into layer rows.
struct TracedCheck {
  CheckRecord Record;
  SpanTotals Spans;
};

TracedCheck tracedCheck(Rig &R, const core::CheckRequest &Req,
                        const std::string &TracePath) {
  obs::TraceSink Sink;
  obs::setTraceSink(&Sink);
  obs::nameCurrentThread("perfbench-main");
  TracedCheck T;
  T.Record = checkOnce(R, Req);
  obs::setTraceSink(nullptr);
  T.Spans = spanTotals(Sink, TracePath, obs::currentThreadId());
  return T;
}

} // namespace

int runApplicability(const RunOptions &O, size_t Jobs, Report &Rep) {
  const bool Parallel = Jobs > 1;
  std::fprintf(stderr, "perfbench: %s, jobs %zu, seed %llu\n",
               O.Workload.c_str(), Jobs, (unsigned long long)O.Seed);

  // Set-up, Reps times into SetupSeconds; the last one is kept in Keep.
  std::vector<double> SetupSeconds;
  auto SetUpTimes = [&](int Reps, std::unique_ptr<Setup> &Keep) {
    for (int I = 0; I < Reps; ++I) {
      Keep.reset();
      auto Fresh = std::make_unique<Setup>();
      SteadyClock::time_point Start = SteadyClock::now();
      if (!setUp(O, Jobs, *Fresh)) {
        std::fprintf(stderr, "perfbench: set-up failed\n");
        return false;
      }
      SetupSeconds.push_back(secondsSince(Start));
      Keep = std::move(Fresh);
    }
    return true;
  };
  std::unique_ptr<Setup> Current;
  if (!SetUpTimes(kSetupReps / 2, Current))
    return 1;
  Setup &S = *Current;

  if (!O.Trace) {
    // Timed passes: at least one, and another only while it is expected
    // to end within the run's time.
    std::vector<Pass> Passes;
    SteadyClock::time_point Start = SteadyClock::now();
    double LastPass;
    do {
      SteadyClock::time_point PassStart = SteadyClock::now();
      Passes.push_back(runPass(S.Engine, S, Rep, /*Repeat=*/true));
      LastPass = secondsSince(PassStart);
    } while (secondsSince(Start) + LastPass <= O.Seconds);
    double Measured = secondsSince(Start);

    // A pass's wall is the sum of its pairs' times, and they are the
    // latencies.
    std::vector<double> Walls, Latencies;
    size_t Decisions = 0;
    std::vector<std::vector<double>> PerPair(kNumPairs);
    for (const Pass &P : Passes) {
      double Wall = 0;
      for (size_t I = 0; I < kNumPairs; ++I) {
        Wall += P.Pairs[I].Seconds;
        PerPair[I].push_back(P.Pairs[I].Seconds);
        Latencies.push_back(P.Pairs[I].Seconds * 1e3);
        Rep.gate(Counters(P.Pairs[I].Result.Stats) ==
                     Counters(Passes[0].Pairs[I].Result.Stats),
                 std::string(kPairs[I]) +
                     ": counters changed between passes");
      }
      Walls.push_back(Wall);
      Decisions += P.Decisions;
    }
    // Before the reference below, which is not part of the workload.
    double PeakRss = peakRssMb();
    if (Parallel) {
      std::vector<Counters> Ref = sequentialReference(S);
      for (size_t I = 0; I < kNumPairs; ++I) {
        Counters Par(Passes[0].Pairs[I].Result.Stats);
        Rep.gate(Par.sameDecisions(Ref[I]),
                 std::string(kPairs[I]) + ": jobs " +
                     std::to_string(Jobs) + " decided differently from jobs "
                     "1: " + Par.str() + " vs " + Ref[I].str());
      }
    }

    // The other half of the set-ups, at the end of the run.
    std::unique_ptr<Setup> Late;
    if (!SetUpTimes(kSetupReps - kSetupReps / 2, Late))
      return 1;

    Rep.metric("setup_s",
               *std::min_element(SetupSeconds.begin(), SetupSeconds.end()),
               "s");
    Rep.metric("wall_s", median(Walls), "s");
    for (size_t I = 0; I < kNumPairs; ++I)
      Rep.metric(std::string("pair_s.") + kPairs[I], median(PerPair[I]),
                 "s");
    Rep.metric("throughput_rps", double(Decisions) / Measured, "1/s");
    Rep.metric("latency_ms.p50", percentile(Latencies, 0.50), "ms");
    Rep.metric("latency_ms.p99", percentile(Latencies, 0.99), "ms");
    Rep.metric("peak_rss_mb", PeakRss, "MB");
    std::fprintf(stderr,
                 "perfbench: %zu passes, %zu checks in %.3f s; wall_s median "
                 "%.3f\n",
                 Passes.size(), Decisions, Measured, median(Walls));
    return 0;
  }

  // ---- Traced run: self-check, passivity, layer tables, replay. ----
  std::vector<CheckRecord> Untraced =
      runPass(S.Engine, S, Rep, /*Repeat=*/false).Pairs;

  {
    Rig Plain = makeRig(Jobs, /*Decorated=*/false);
    if (!Plain.Engine)
      return 1;
    std::vector<CheckRecord> P =
        runPass(Plain, S, Rep, /*Repeat=*/false).Pairs;
    for (size_t I = 0; I < kNumPairs; ++I) {
      Counters A(Untraced[I].Result.Stats), B(P[I].Result.Stats);
      Rep.gate(A == B, std::string(kPairs[I]) +
                           ": decorator changed the counters at jobs " +
                           std::to_string(Jobs) + ": " + A.str() + " vs " +
                           B.str());
      if (!Parallel)
        Rep.gate(sameSolverWork(Untraced[I].Solver, P[I].Solver),
                 std::string(kPairs[I]) +
                     ": decorator changed the solver work counters");
    }
  }

  // Each pair's replay runs right after its traced check, so both see the
  // same heap (a pair decided after VLP runs up to 1.5x slower).
  std::vector<TracedCheck> Traced;
  std::vector<Replay> Replays;
  for (size_t I = 0; I < kNumPairs; ++I) {
    std::string Path = O.TraceDir.empty()
                           ? std::string()
                           : O.TraceDir + "/" + O.Workload + "-" +
                                 kPairs[I] + ".json";
    Traced.push_back(tracedCheck(S.Engine, S.Requests[I], Path));
    Rep.attempt();
    if (Traced.back().Record.Result.V != core::Verdict::Equivalent)
      Rep.fail(std::string(kPairs[I]) + ": traced verdict is not "
                                            "equivalent");
    Counters A(Untraced[I].Result.Stats), B(Traced.back().Record.Result.Stats);
    Rep.gate(A == B, std::string(kPairs[I]) +
                         ": tracing changed the counters (passivity): " +
                         A.str() + " vs " + B.str());
    Replays.push_back(replay(S.Requests[I], Traced.back().Record.Result));
  }

  if (Parallel) {
    std::vector<Counters> Ref = sequentialReference(S);
    for (size_t I = 0; I < kNumPairs; ++I)
      Rep.gate(Counters(Untraced[I].Result.Stats).sameDecisions(Ref[I]),
               std::string(kPairs[I]) + ": jobs " + std::to_string(Jobs) +
                   " decided differently from jobs 1");
  }

  // Aggregates over the three pairs.
  double CheckWall = 0, PrimarySmt = 0, TracedWall = 0, Unattributed = 0;
  double ReachUs = 0, WpUs = 0, LowerUs = 0;
  size_t Conjuncts = 0, Kept = 0, Total = 0;
  double MergeS = 0, WaitS = 0, WorkerBusyS = 0;
  core::CheckStats Sum;
  smt::SolverStats Solver;
  SolverTimes Times;
  for (size_t I = 0; I < kNumPairs; ++I) {
    const CheckRecord &U = Untraced[I];
    const core::CheckStats &St = U.Result.Stats;
    CheckWall += U.Seconds;
    PrimarySmt += U.Primary.seconds();
    WorkerBusyS += U.Workers.seconds();
    Times.add(U.Primary);
    Times.add(U.Workers);
    Solver.merge(U.Solver);
    Sum.Iterations += St.Iterations;
    Sum.Extends += St.Extends;
    Sum.Skips += St.Skips;
    Sum.FinalConjuncts += St.FinalConjuncts;
    Sum.PeakFrontier = std::max(Sum.PeakFrontier, St.PeakFrontier);
    Sum.FormulaNodes += St.FormulaNodes;
    Sum.SmtQueries += St.SmtQueries;

    const Replay &RP = Replays[I];
    ReachUs += RP.ReachUs;
    WpUs += RP.WpUsPerConjunct * double(St.FinalConjuncts);
    LowerUs += RP.LowerUsPerObligation;
    Conjuncts += St.FinalConjuncts;
    Kept += RP.PremisesKept;
    Total += RP.PremisesTotal;

    // The layer table: main-thread self times of the traced check partition
    // its wall exactly. The engine's own code runs in the self time of
    // check.run and, on the parallel engine, of epoch.merge (the merge
    // applies each decision and expands its WP); the replay estimates
    // split that, and what they do not explain is unattributed.
    const TracedCheck &T = Traced[I];
    const CheckRecord &TR = T.Record;
    double Wall = T.Spans.seconds("bench.core.check");
    TracedWall += TR.Seconds;
    std::vector<LayerRow> Rows;
    double Smt = 0;
    for (const auto &KV : T.Spans.MainSelf) {
      const std::string &Name = KV.first;
      if (Name.rfind("bench.smt.", 0) == 0 || Name.rfind("solver.", 0) == 0)
        Smt += KV.second;
      else if (Name.rfind("epoch.", 0) == 0 && Name != "epoch.merge")
        Rows.push_back({"parallel: " + Name + " (self)", KV.second});
      else if (Name != "check.run" && Name != "bench.core.check" &&
               Name != "epoch.merge")
        Rows.push_back({"other: " + Name + " (self)", KV.second});
    }
    MergeS += T.Spans.mainSelf("epoch.merge");
    WaitS += T.Spans.mainSelf("epoch.wait");
    uint64_t LowerCalls = TR.Primary.PremiseCalls + TR.Primary.Goals;
    Rows.insert(Rows.begin(),
                {{"smt: solver calls (main thread)", Smt},
                 {"core: reach (replay est.)", RP.ReachUs / 1e6},
                 {"core: wp (replay est., x extends)",
                  RP.WpUsPerConjunct * double(St.Extends) / 1e6},
                 {"logic: lowerPure (replay est., x calls)",
                  RP.LowerPureUsPerFormula * double(LowerCalls) / 1e6}});
    char Title[240];
    std::snprintf(Title, sizeof(Title),
                  "%s, %s, jobs %zu\n  core.self_share %.3f (untraced: "
                  "%.3f s check, %.3f s in smt); epoch.merge self %.3f s",
                  O.Workload.c_str(), kPairs[I], Jobs,
                  U.Seconds > 0 ? (U.Seconds - U.Primary.seconds()) / U.Seconds
                                : 0.0,
                  U.Seconds, U.Primary.seconds(),
                  T.Spans.mainSelf("epoch.merge"));
    Unattributed += printLayerTable(Title, Wall, Rows);
  }

  double SmtS = Times.seconds();
  std::vector<double> QueryUs(Times.QueryMicros.begin(),
                              Times.QueryMicros.end());
  Rep.metric("core.self_s", CheckWall - PrimarySmt, "s");
  Rep.metric("core.self_share",
             CheckWall > 0 ? (CheckWall - PrimarySmt) / CheckWall : 0, "ratio");
  Rep.metric("core.iterations", double(Sum.Iterations), "count");
  Rep.metric("core.extends", double(Sum.Extends), "count");
  Rep.metric("core.skips", double(Sum.Skips), "count");
  Rep.metric("core.final_conjuncts", double(Sum.FinalConjuncts), "count");
  Rep.metric("core.peak_frontier", double(Sum.PeakFrontier), "count");
  Rep.metric("core.formula_nodes", double(Sum.FormulaNodes), "count");
  Rep.metric("core.reach_us", ReachUs, "us");
  Rep.metric("core.wp_us_per_conjunct",
             Conjuncts ? WpUs / double(Conjuncts) : 0, "us");
  Rep.metric("logic.lower_us_per_obligation", LowerUs / double(kNumPairs),
             "us");
  Rep.metric("logic.premises_kept_ratio",
             Total ? double(Kept) / double(Total) : 0, "ratio");
  Rep.metric("smt.premise_s", double(Times.PremiseNanos) / 1e9, "s");
  Rep.metric("smt.query_s", double(Times.QueryNanos) / 1e9, "s");
  Rep.metric("smt.query_us.p50", percentile(QueryUs, 0.50), "us");
  Rep.metric("smt.query_us.p99", percentile(QueryUs, 0.99), "us");
  Rep.metric("smt.queries", double(Solver.Queries), "count");
  Rep.metric("smt.round_trips", double(Solver.RoundTrips), "count");
  Rep.metric("smt.premise_cache_hit_ratio",
             Solver.SessionPremises
                 ? double(Solver.PremiseCacheHits) /
                       double(Solver.SessionPremises)
                 : 0,
             "ratio");
  Rep.metric("smt.sat_vars", double(Solver.TotalSatVars), "count");
  Rep.metric("smt.sat_clauses", double(Solver.TotalSatClauses), "count");
  Rep.metric("smt.arena_peak_bytes", double(Solver.ArenaBytesPeak), "bytes");
  Rep.metric("smt.peak_learnts", double(Solver.PeakLearnts), "count");
  Rep.metric("parallel.requery_ratio",
             Sum.Iterations ? double(Sum.SmtQueries) / double(Sum.Iterations)
                            : 0,
             "ratio");
  Rep.metric("parallel.worker_busy_share",
             Parallel && CheckWall > 0
                 ? WorkerBusyS / (double(Jobs) * CheckWall)
                 : 0,
             "ratio");
  Rep.metric("parallel.merge_share", TracedWall > 0 ? MergeS / TracedWall : 0,
             "ratio");
  Rep.metric("parallel.wait_share", TracedWall > 0 ? WaitS / TracedWall : 0,
             "ratio");
  Rep.metric("layer.unattributed_share",
             TracedWall > 0 ? Unattributed / TracedWall : 0, "ratio");
  Rep.metric("trace.overhead_share",
             CheckWall > 0 ? (TracedWall - CheckWall) / CheckWall : 0,
             "ratio");
  std::fprintf(stderr,
               "\nperfbench: untraced check wall %.3f s (smt %.3f s), traced "
               "%.3f s; tracing overhead %+.1f%%\n",
               CheckWall, SmtS, TracedWall,
               CheckWall > 0 ? 100.0 * (TracedWall - CheckWall) / CheckWall
                             : 0.0);
  return 0;
}

} // namespace perfbench
