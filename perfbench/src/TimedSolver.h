//===- TimedSolver.h - Solver-timing decorator for the benchmark *- C++ -*-===//
//
// Part of leapfrog-cc's benchmark (perfbench/). Not linked into the library.
//
//===----------------------------------------------------------------------===//
//
// A transparent smt::SmtSolver decorator that times every call into the
// `smt` layer from the outside, so the benchmark can split a check's wall
// clock into "inside the solver" and "everything else" (the `core` self
// time) without a single span inside src/.
//
// Transparency rules, each pinned by the benchmark's self-check (the
// deterministic counters of a decorated run must equal an undecorated one):
//
//  * Every SmtSolver virtual is forwarded: one-shot checkSat, sessions
//    (assertPremise, checkSatUnderPremises, checkSatBatch — batches stay
//    batches), proof capture, interrupts and spawnWorker. A decorator
//    without spawnWorker makes the parallel engine fall back to the
//    sequential loop without a word; here every spawned worker backend is
//    wrapped in its own TimedSolver with its own accumulators.
//  * The inner backend's SolverStats are moved into the decorator's own
//    record after every call (SmtSolver::stats() is not virtual, and the
//    checker reads it for SolverMicros and the parallel engine absorbs
//    worker stats through it), so the engine sees exactly the statistics
//    the inner backend produced.
//
// A decorator and its sessions are used by one thread at a time, like any
// backend (the parallel engine gives each worker its own).
//
//===----------------------------------------------------------------------===//

#ifndef LEAPFROG_PERFBENCH_TIMEDSOLVER_H
#define LEAPFROG_PERFBENCH_TIMEDSOLVER_H

#include "smt/Solver.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace perfbench {

/// Time spent inside the decorated backend, split by call kind.
struct SolverTimes {
  uint64_t PremiseNanos = 0; ///< Session assertPremise calls.
  uint64_t QueryNanos = 0;   ///< checkSat, checkSatUnderPremises, batches.
  uint64_t PremiseCalls = 0;
  uint64_t Goals = 0; ///< Goals answered (a batch counts each goal).
  std::vector<uint32_t> QueryMicros; ///< One sample per physical call
                                     ///< (a batch is one call).

  void add(const SolverTimes &O);
  double seconds() const { return double(PremiseNanos + QueryNanos) / 1e9; }
};

class TimedSolver : public leapfrog::smt::SmtSolver {
public:
  explicit TimedSolver(std::unique_ptr<leapfrog::smt::SmtSolver> Inner);

  leapfrog::smt::SatResult checkSat(const leapfrog::smt::BvFormulaRef &F,
                                    leapfrog::smt::Model *M) override;
  std::unique_ptr<IncrementalSession>
  openSession(const leapfrog::smt::SessionLimits &Limits) override;
  using SmtSolver::openSession;
  std::unique_ptr<leapfrog::smt::SmtSolver> spawnWorker() override;

  bool attachProofLog(leapfrog::smt::ProofLog *Log) override {
    return Inner->attachProofLog(Log);
  }
  void detachProofLog() override { Inner->detachProofLog(); }
  bool supportsProofCapture() const override {
    return Inner->supportsProofCapture();
  }
  void interrupt() override { Inner->interrupt(); }
  bool interrupted() const override { return Inner->interrupted(); }
  void clearInterrupt() override { Inner->clearInterrupt(); }

  const SolverTimes &times() const { return Times; }
  void resetTimes() { Times = SolverTimes(); }

private:
  class Session;
  /// Moves the inner backend's statistics into this decorator's record.
  void drainStats();
  void recordQuery(uint64_t Nanos, size_t Goals);

  std::unique_ptr<leapfrog::smt::SmtSolver> Inner;
  SolverTimes Times;
};

} // namespace perfbench

#endif // LEAPFROG_PERFBENCH_TIMEDSOLVER_H
