//===- ParallelTest.cpp - Parallel frontier engine tests ------------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The parallel engine's one promise is exactness: for any job count and
// any schedule it takes the same Skip/Extend decisions, builds the same
// relation, and returns the same verdict as the zero-worker jobs=1 run. The
// battery here locks that in three ways:
//
//   - a parallel-vs-sequential differential over every registry study at
//     jobs ∈ {2, 4}, comparing the full decision *stream* (kind, pushed
//     WP count, and the exact conjunct of every trace step), the final
//     relation conjunct-by-conjunct, and the verdict;
//   - determinism: two parallel runs of the same study are identical;
//   - unit tests for the runtime pieces (work-stealing deque, striped
//     visited set, epoch pool) under real thread contention, since the
//     checker-level tests only exercise the schedules that happen to
//     occur.
//
//===----------------------------------------------------------------------===//

#include "core/Checker.h"
#include "core/FrontierKey.h"
#include "parallel/StripedSet.h"
#include "parallel/WorkStealingDeque.h"
#include "parallel/WorkerPool.h"
#include "parsers/CaseStudies.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace leapfrog;
using namespace leapfrog::core;

namespace {

//===----------------------------------------------------------------------===//
// Runtime pieces under contention
//===----------------------------------------------------------------------===//

TEST(WorkStealingDeque, OwnerIsLifoThievesAreFifo) {
  parallel::WorkStealingDeque D;
  D.push(1);
  D.push(2);
  D.push(3);
  size_t T = 0;
  ASSERT_TRUE(D.steal(T));
  EXPECT_EQ(T, 1u); // Oldest to the thief.
  ASSERT_TRUE(D.pop(T));
  EXPECT_EQ(T, 3u); // Newest to the owner.
  ASSERT_TRUE(D.pop(T));
  EXPECT_EQ(T, 2u);
  EXPECT_FALSE(D.pop(T));
  EXPECT_FALSE(D.steal(T));
}

TEST(WorkStealingDeque, ConcurrentStealsDeliverEveryTaskOnce) {
  constexpr size_t NumTasks = 10000;
  parallel::WorkStealingDeque D;
  for (size_t I = 0; I < NumTasks; ++I)
    D.push(I);

  constexpr size_t NumThieves = 4;
  std::vector<char> Taken(NumTasks, 0);
  std::atomic<size_t> Count{0};
  std::vector<std::thread> Thieves;
  for (size_t I = 0; I < NumThieves; ++I)
    Thieves.emplace_back([&] {
      size_t T;
      while (D.steal(T)) {
        // Distinct tasks → distinct slots; a double delivery would race
        // on one slot and trip the count below (and TSan).
        Taken[T] = 1;
        Count.fetch_add(1, std::memory_order_relaxed);
      }
    });
  size_t T;
  while (D.pop(T)) { // The owner drains concurrently with the thieves.
    Taken[T] = 1;
    Count.fetch_add(1, std::memory_order_relaxed);
  }
  for (std::thread &Th : Thieves)
    Th.join();

  EXPECT_EQ(Count.load(), NumTasks);
  for (size_t I = 0; I < NumTasks; ++I)
    EXPECT_EQ(Taken[I], 1) << "task " << I << " never delivered";
}

TEST(StripedSet, InsertReportsFirstInsertionOnly) {
  parallel::StripedSet S;
  EXPECT_TRUE(S.insert("a"));
  EXPECT_FALSE(S.insert("a"));
  EXPECT_TRUE(S.insert("b"));
  EXPECT_TRUE(S.contains("a"));
  EXPECT_FALSE(S.contains("c"));
  EXPECT_EQ(S.size(), 2u);
}

TEST(StripedSet, ConcurrentInsertersAgreeOnOneWinnerPerKey) {
  parallel::StripedSet S;
  constexpr size_t NumKeys = 2000;
  constexpr size_t NumThreads = 4;
  std::atomic<size_t> Wins{0};
  std::vector<std::thread> Threads;
  for (size_t I = 0; I < NumThreads; ++I)
    Threads.emplace_back([&] {
      for (size_t K = 0; K < NumKeys; ++K)
        if (S.insert("key-" + std::to_string(K)))
          Wins.fetch_add(1, std::memory_order_relaxed);
    });
  for (std::thread &T : Threads)
    T.join();
  // Every key has exactly one winning inserter across all threads.
  EXPECT_EQ(Wins.load(), NumKeys);
  EXPECT_EQ(S.size(), NumKeys);
}

TEST(WorkerPool, RunsEveryTaskExactlyOnceAcrossEpochs) {
  parallel::WorkerPool Pool(4);
  ASSERT_EQ(Pool.workers(), 4u);
  for (size_t Epoch = 0; Epoch < 3; ++Epoch) {
    const size_t NumTasks = 257; // Deliberately not a multiple of 4.
    std::vector<std::atomic<int>> Runs(NumTasks);
    for (auto &R : Runs)
      R.store(0);
    Pool.runEpoch(NumTasks, [&](size_t WorkerId, size_t Task) {
      EXPECT_LT(WorkerId, 4u);
      ASSERT_LT(Task, NumTasks);
      Runs[Task].fetch_add(1);
    });
    for (size_t I = 0; I < NumTasks; ++I)
      EXPECT_EQ(Runs[I].load(), 1) << "task " << I;
  }
  // An empty epoch is a no-op, not a hang.
  Pool.runEpoch(0, [&](size_t, size_t) { FAIL(); });
}

//===----------------------------------------------------------------------===//
// Parallel-vs-sequential differential over the whole registry
//===----------------------------------------------------------------------===//

/// Renders a trace step so failures show the first diverging decision.
std::string traceKey(const TraceStep &T) {
  const char *Kind = T.K == TraceStep::Kind::Skip     ? "skip"
                     : T.K == TraceStep::Kind::Extend ? "extend"
                                                      : "done";
  return std::string(Kind) + "/" + std::to_string(T.WpCount) + " " +
         detail::formulaKey(T.Psi);
}

CheckResult runStudy(const parsers::CaseStudy &Study, size_t Jobs,
                     smt::BitBlastSolver &Solver, size_t MaxIterations) {
  CheckOptions O;
  O.MaxIterations = MaxIterations;
  O.Solver = &Solver;
  O.Jobs = Jobs;
  O.RecordTrace = true;
  return checkLanguageEquivalence(Study.Left, Study.LeftStart, Study.Right,
                                  Study.RightStart, O);
}

/// Everything that must be bit-identical between the engines. SmtQueries
/// and the times are deliberately absent: the parallel phase answers some
/// queries the merge then re-derives under a grown premise set, so the
/// query *count* is schedule-dependent even though every decision is not.
void expectIdenticalDecisions(const char *Name, const CheckResult &Seq,
                              const CheckResult &Par) {
  EXPECT_EQ(Seq.V, Par.V) << Name << ": " << Seq.FailureReason << " vs "
                          << Par.FailureReason;
  EXPECT_EQ(Seq.FailureReason, Par.FailureReason) << Name;
  EXPECT_EQ(Seq.Stats.Iterations, Par.Stats.Iterations) << Name;
  EXPECT_EQ(Seq.Stats.Extends, Par.Stats.Extends) << Name;
  EXPECT_EQ(Seq.Stats.Skips, Par.Stats.Skips) << Name;
  EXPECT_EQ(Seq.Stats.FinalConjuncts, Par.Stats.FinalConjuncts) << Name;
  EXPECT_EQ(Seq.Stats.PeakFrontier, Par.Stats.PeakFrontier) << Name;
  EXPECT_EQ(Seq.Stats.FormulaNodes, Par.Stats.FormulaNodes) << Name;

  ASSERT_EQ(Seq.Trace.size(), Par.Trace.size()) << Name;
  for (size_t I = 0; I < Seq.Trace.size(); ++I)
    ASSERT_EQ(traceKey(Seq.Trace[I]), traceKey(Par.Trace[I]))
        << Name << ": decision stream diverges at step " << I;

  // On Equivalent the certificates carry the relation; compare it
  // conjunct-by-conjunct with *uncanonicalized* keys — the stored
  // variable names are semantically load-bearing (a WP child discharges
  // against its parent through shared names), so they must match too.
  ASSERT_EQ(Seq.Certificate.Relation.size(), Par.Certificate.Relation.size())
      << Name;
  for (size_t I = 0; I < Seq.Certificate.Relation.size(); ++I)
    ASSERT_EQ(detail::formulaKey(Seq.Certificate.Relation[I]),
              detail::formulaKey(Par.Certificate.Relation[I]))
        << Name << ": relation diverges at conjunct " << I;
}

/// One registry study per test instance: sequential baseline, then
/// jobs=2 and jobs=4 against it. A modest iteration cap keeps the
/// applicability self-comparisons affordable while still diffing
/// hundreds of live decisions per study; ResourceLimit runs compare
/// exactly like completed ones (same trace prefix, same failure text).
class ParallelDifferential : public ::testing::TestWithParam<size_t> {};

TEST_P(ParallelDifferential, DecisionsMatchSequential) {
  std::vector<parsers::CaseStudy> Studies = parsers::allCaseStudies();
  ASSERT_LT(GetParam(), Studies.size());
  const parsers::CaseStudy &Study = Studies[GetParam()];
  const size_t MaxIterations = 300;

  smt::BitBlastSolver SeqSolver;
  CheckResult Seq = runStudy(Study, 1, SeqSolver, MaxIterations);

  for (size_t Jobs : {2u, 4u}) {
    smt::BitBlastSolver ParSolver;
    CheckResult Par = runStudy(Study, Jobs, ParSolver, MaxIterations);
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    expectIdenticalDecisions(Study.Name.c_str(), Seq, Par);

    // The run really was work-sharded: workers opened their own sessions
    // and their stats were absorbed into the primary backend's record.
    if (Par.Stats.SmtQueries > 0) {
      EXPECT_GT(ParSolver.stats().SessionsOpened, 0u) << Study.Name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Registry, ParallelDifferential,
                         ::testing::Range<size_t>(0, 10));

//===----------------------------------------------------------------------===//
// Determinism and fallback
//===----------------------------------------------------------------------===//

TEST(ParallelChecker, RepeatedRunsAreIdentical) {
  std::vector<parsers::CaseStudy> Studies = parsers::allCaseStudies();
  const parsers::CaseStudy &Study = Studies[0]; // State Rearrangement.
  smt::BitBlastSolver S1, S2;
  CheckResult A = runStudy(Study, 3, S1, 300);
  CheckResult B = runStudy(Study, 3, S2, 300);
  expectIdenticalDecisions(Study.Name.c_str(), A, B);
}

/// A backend that cannot spawn workers: Jobs > 1 must run with zero
/// workers (posing every query to this instance) rather than crash or
/// ignore the custom backend.
class NoSpawnSolver : public smt::SmtSolver {
public:
  smt::SatResult checkSat(const smt::BvFormulaRef &F,
                          smt::Model *M) override {
    return Inner.checkSat(F, M);
  }

private:
  smt::BitBlastSolver Inner;
};

TEST(ParallelChecker, BackendWithoutWorkersFallsBackToSequential) {
  std::vector<parsers::CaseStudy> Studies = parsers::allCaseStudies();
  const parsers::CaseStudy &Study = Studies[2]; // Header initialization.

  smt::BitBlastSolver Baseline;
  CheckResult Seq = runStudy(Study, 1, Baseline, 300);

  NoSpawnSolver Custom;
  CheckOptions O;
  O.MaxIterations = 300;
  O.Solver = &Custom;
  O.Jobs = 4;
  O.RecordTrace = true;
  CheckResult Par = checkLanguageEquivalence(
      Study.Left, Study.LeftStart, Study.Right, Study.RightStart, O);

  expectIdenticalDecisions(Study.Name.c_str(), Seq, Par);
  // The custom backend answered the queries itself — the fallback did
  // not quietly swap in internal BitBlastSolvers. (Its own Queries
  // counter stays zero because checkSat delegates, but the sessions the
  // engine opened on it are its.)
  EXPECT_GT(Custom.stats().SessionQueries, 0u);
}

/// Session limits apply per worker: a cap small enough to trip the
/// unlimited run's peak must trip restarts in some worker, and the
/// decisions still match the unlimited parallel run.
TEST(ParallelChecker, SessionLimitsApplyPerWorker) {
  std::vector<parsers::CaseStudy> Studies = parsers::allCaseStudies();
  const parsers::CaseStudy &Study = Studies[3]; // Speculative loop.

  smt::BitBlastSolver Unlimited, Limited;
  CheckOptions O;
  O.MaxIterations = 300;
  O.Jobs = 2;
  O.RecordTrace = true;
  O.Solver = &Unlimited;
  CheckResult A = checkLanguageEquivalence(
      Study.Left, Study.LeftStart, Study.Right, Study.RightStart, O);

  O.Solver = &Limited;
  O.Limits.MaxLearnts = 4;
  CheckResult B = checkLanguageEquivalence(
      Study.Left, Study.LeftStart, Study.Right, Study.RightStart, O);

  expectIdenticalDecisions(Study.Name.c_str(), A, B);
  if (Unlimited.stats().PeakLearnts > O.Limits.MaxLearnts) {
    EXPECT_GT(Limited.stats().SessionRestarts, 0u);
  }
}

} // namespace
