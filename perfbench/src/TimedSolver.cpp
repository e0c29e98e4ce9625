//===- TimedSolver.cpp - Solver-timing decorator for the benchmark --------===//
//
// Part of leapfrog-cc's benchmark (perfbench/). Not linked into the library.
//
//===----------------------------------------------------------------------===//

#include "TimedSolver.h"

#include "obs/Trace.h"

#include <chrono>

using namespace leapfrog;
using perfbench::SolverTimes;
using perfbench::TimedSolver;

namespace {

using SteadyClock = std::chrono::steady_clock;

uint64_t nanosSince(SteadyClock::time_point Start) {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      SteadyClock::now() - Start)
                      .count());
}

} // namespace

void SolverTimes::add(const SolverTimes &O) {
  PremiseNanos += O.PremiseNanos;
  QueryNanos += O.QueryNanos;
  PremiseCalls += O.PremiseCalls;
  Goals += O.Goals;
  QueryMicros.insert(QueryMicros.end(), O.QueryMicros.begin(),
                     O.QueryMicros.end());
}

TimedSolver::TimedSolver(std::unique_ptr<smt::SmtSolver> Inner)
    : Inner(std::move(Inner)) {}

void TimedSolver::drainStats() {
  // Peaks (MaxMicros, ArenaBytesPeak, PeakLearnts) merge by maximum, so
  // draining after every call keeps their "largest any instance reached"
  // meaning; every other field is a total and adds.
  Stats.merge(Inner->stats());
  Inner->resetStats();
}

/// Forwards one session, timing each call into the owner's accumulators.
class TimedSolver::Session : public smt::SmtSolver::IncrementalSession {
public:
  Session(TimedSolver &Owner, std::unique_ptr<IncrementalSession> Inner)
      : Owner(Owner), Inner(std::move(Inner)) {}

  ~Session() override {
    // Whatever the inner session books on teardown belongs to the owner.
    Inner.reset();
    Owner.drainStats();
  }

  void assertPremise(const smt::BvFormulaRef &F) override {
    obs::ScopedSpan Span("bench.smt.premise", "bench");
    SteadyClock::time_point Start = SteadyClock::now();
    Inner->assertPremise(F);
    Owner.Times.PremiseNanos += nanosSince(Start);
    ++Owner.Times.PremiseCalls;
    Owner.drainStats();
  }

  smt::SatResult checkSatUnderPremises(const smt::BvFormulaRef &Goal,
                                       smt::Model *M) override {
    obs::ScopedSpan Span("bench.smt.query", "bench");
    SteadyClock::time_point Start = SteadyClock::now();
    smt::SatResult R = Inner->checkSatUnderPremises(Goal, M);
    Owner.recordQuery(nanosSince(Start), 1);
    return R;
  }

  void checkSatBatch(const std::vector<smt::BvFormulaRef> &Goals,
                     std::vector<smt::SatResult> &Out) override {
    obs::ScopedSpan Span("bench.smt.query", "bench");
    SteadyClock::time_point Start = SteadyClock::now();
    Inner->checkSatBatch(Goals, Out);
    Owner.recordQuery(nanosSince(Start), Goals.size());
  }

private:
  TimedSolver &Owner;
  std::unique_ptr<IncrementalSession> Inner;
};

void TimedSolver::recordQuery(uint64_t Nanos, size_t Goals) {
  Times.QueryNanos += Nanos;
  Times.Goals += Goals;
  Times.QueryMicros.push_back(uint32_t(Nanos / 1000));
  drainStats();
}

smt::SatResult TimedSolver::checkSat(const smt::BvFormulaRef &F,
                                     smt::Model *M) {
  obs::ScopedSpan Span("bench.smt.query", "bench");
  SteadyClock::time_point Start = SteadyClock::now();
  smt::SatResult R = Inner->checkSat(F, M);
  recordQuery(nanosSince(Start), 1);
  return R;
}

std::unique_ptr<smt::SmtSolver::IncrementalSession>
TimedSolver::openSession(const smt::SessionLimits &Limits) {
  std::unique_ptr<IncrementalSession> S = Inner->openSession(Limits);
  drainStats();
  return std::make_unique<Session>(*this, std::move(S));
}

std::unique_ptr<smt::SmtSolver> TimedSolver::spawnWorker() {
  std::unique_ptr<smt::SmtSolver> W = Inner->spawnWorker();
  if (!W)
    return nullptr;
  return std::make_unique<TimedSolver>(std::move(W));
}
