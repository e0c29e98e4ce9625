//===- WorkerPool.h - Epoch-barrier worker pool -----------------*- C++ -*-===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed pool of worker threads driven in *epochs*: the caller hands the
/// pool a batch of tasks, every worker drains its own work-stealing deque
/// (stealing from siblings when it runs dry), and runEpoch() returns only
/// when the whole batch is done — the barrier each parallel decide phase
/// of the checker (core/Checker.cpp) ends on. Tasks within an epoch must be
/// mutually independent and must not enqueue further tasks; new work is
/// what the *next* epoch is for.
///
/// The start handshake (the pool mutex) is the synchronizes-with edge
/// that publishes everything the caller wrote before runEpoch() to every
/// worker; the completion handshake publishes the workers' writes back.
///
/// Threads are created once and parked between epochs, so per-epoch cost
/// is two condition-variable handshakes, not thread churn. WorkerId is a
/// stable index in [0, workers()): each worker thread always reports the
/// same id, which is what lets callers keep per-worker state (solver
/// sessions) without synchronization.
///
//===----------------------------------------------------------------------===//

#ifndef LEAPFROG_PARALLEL_WORKERPOOL_H
#define LEAPFROG_PARALLEL_WORKERPOOL_H

#include "parallel/WorkStealingDeque.h"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace leapfrog {
namespace parallel {

class WorkerPool {
public:
  /// Invoked once per task: \p WorkerId identifies the executing worker
  /// (stable across epochs), \p Task is the task's index in the batch.
  using TaskFn = std::function<void(size_t WorkerId, size_t Task)>;

  /// Spawns \p Workers threads (at least one), parked until runEpoch().
  explicit WorkerPool(size_t Workers);

  /// Joins all workers.
  ~WorkerPool();

  size_t workers() const { return Threads.size(); }

  /// Runs tasks 0..NumTasks-1 to completion and returns (the epoch
  /// barrier). Tasks are dealt to the per-worker deques in contiguous
  /// blocks; the steal path rebalances whatever the blocks got wrong.
  /// Calls are serialized: one epoch at a time, from the thread that
  /// owns the pool.
  void runEpoch(size_t NumTasks, const TaskFn &Fn);

  /// Same barrier, but the caller chooses the deal: Assigned[W] seeds
  /// worker W's deque (in order). This is how the checker keeps
  /// template-pair affinity — tasks whose entailments share a premise
  /// set go to the same worker, so that worker's incremental session is
  /// the only one that has to blast those premises. Task values are
  /// opaque to the pool; stealing still applies, trading some affinity
  /// for load balance.
  void runEpoch(const std::vector<std::vector<size_t>> &Assigned,
                const TaskFn &Fn);

private:
  /// Posts the epoch (deques already seeded, Fn stored) and blocks until
  /// every worker has drained it.
  void postSeededEpochAndWait();
  void workerMain(size_t Id);
  /// Drains this worker's deque, then steals from siblings; returns when
  /// every deque has been observed empty (tasks never spawn tasks, so an
  /// empty sweep is terminal).
  void runTasks(size_t Id);

  std::vector<std::thread> Threads;
  /// deque, not vector: WorkStealingDeque owns a mutex, so elements must
  /// never relocate.
  std::deque<WorkStealingDeque> Deques;

  std::mutex M;
  std::condition_variable CvStart; ///< Main → workers: epoch posted.
  std::condition_variable CvDone;  ///< Last worker → main: epoch drained.
  TaskFn Fn;                       ///< Owned for the duration of an epoch.
  uint64_t Epoch = 0;
  size_t DoneCount = 0;
  bool Stop = false;
};

} // namespace parallel
} // namespace leapfrog

#endif // LEAPFROG_PARALLEL_WORKERPOOL_H
