//===- WorkerPool.cpp - Epoch-barrier worker pool -------------------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "parallel/WorkerPool.h"

#include <cassert>

using namespace leapfrog;
using namespace leapfrog::parallel;

WorkerPool::WorkerPool(size_t Workers) {
  size_t N = Workers < 1 ? 1 : Workers;
  for (size_t I = 0; I < N; ++I)
    Deques.emplace_back();
  Threads.reserve(N);
  for (size_t I = 0; I < N; ++I)
    Threads.emplace_back([this, I] { workerMain(I); });
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> Lock(M);
    Stop = true;
  }
  CvStart.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

void WorkerPool::runEpoch(size_t NumTasks, const TaskFn &TaskBody) {
  if (NumTasks == 0)
    return;
  // Deal contiguous blocks: worker W owns [W*N/P, (W+1)*N/P). No worker
  // is running here — the previous epoch's barrier completed — so the
  // deques are safe to fill without observing steals.
  size_t P = Threads.size();
  for (size_t W = 0; W < P; ++W) {
    size_t Lo = NumTasks * W / P, Hi = NumTasks * (W + 1) / P;
    for (size_t T = Lo; T < Hi; ++T)
      Deques[W].push(T);
  }
  Fn = TaskBody;
  postSeededEpochAndWait();
}

void WorkerPool::runEpoch(const std::vector<std::vector<size_t>> &Assigned,
                          const TaskFn &TaskBody) {
  assert(Assigned.size() == Threads.size() &&
         "one task list per worker (may be empty)");
  size_t Total = 0;
  for (size_t W = 0; W < Assigned.size() && W < Threads.size(); ++W) {
    Total += Assigned[W].size();
    for (size_t T : Assigned[W])
      Deques[W].push(T);
  }
  if (Total == 0)
    return;
  Fn = TaskBody;
  postSeededEpochAndWait();
}

void WorkerPool::postSeededEpochAndWait() {
  {
    std::lock_guard<std::mutex> Lock(M);
    assert(DoneCount == Threads.size() || Epoch == 0);
    DoneCount = 0;
    ++Epoch;
  }
  CvStart.notify_all();
  {
    std::unique_lock<std::mutex> Lock(M);
    CvDone.wait(Lock, [&] { return DoneCount == Threads.size(); });
  }
  Fn = nullptr;
}

void WorkerPool::workerMain(size_t Id) {
  uint64_t SeenEpoch = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> Lock(M);
      CvStart.wait(Lock, [&] { return Stop || Epoch != SeenEpoch; });
      if (Stop)
        return;
      SeenEpoch = Epoch;
    }
    runTasks(Id);
    {
      std::lock_guard<std::mutex> Lock(M);
      if (++DoneCount == Threads.size())
        CvDone.notify_one();
    }
  }
}

void WorkerPool::runTasks(size_t Id) {
  // The Fn member is stable for the whole epoch (the main thread only
  // reassigns it outside one), so one unsynchronized read per task sweep
  // is fine — the acquire in workerMain ordered it.
  size_t Task;
  for (;;) {
    if (Deques[Id].pop(Task)) {
      Fn(Id, Task);
      continue;
    }
    bool Found = false;
    for (size_t K = 1; K < Deques.size() && !Found; ++K) {
      size_t Victim = (Id + K) % Deques.size();
      if (Deques[Victim].steal(Task)) {
        Found = true;
        Fn(Id, Task);
      }
    }
    if (!Found)
      return;
  }
}
