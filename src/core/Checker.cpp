//===- Checker.cpp - Symbolic equivalence checking (Algorithm 1) ----------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Algorithm 1 is implemented once, in detail::runAlgorithm1. The frontier
// T is a FIFO queue consumed in *windows* of CheckOptions::Chunk entries,
// and each window is replayed in frontier order on the calling thread:
// every entry is Skipped or Extended exactly as the paper's worklist loop
// would, against the live R of its turn.
//
// An entry's entailment ⋀R ⊨ ψ may have been *posed* before its turn —
// by a worker during the window's parallel decide phase (Jobs > 1), or
// batched into an earlier replay-time decision (GoalBatch > 1). One
// staleness rule decides whether such an answer still stands:
//   - "entailed" always stands: entailment is monotone in premises, and
//     the live R at the entry's turn extends the R it was posed against;
//   - "not entailed", posed at R length PosedAtR, stands unless a
//     conjunct with ψ's guard was extended at or after PosedAtR.
//     Entailment consults only premises sharing ψ's guard (logic/Lower.h
//     stage 2), so otherwise the premise set relevant to ψ is unchanged.
// A stale or never-posed entry is decided *live* at its turn by its
// guard's affinity owner — the worker whose sessions hold that guard's
// premises, or the primary backend when there are no workers.
//
// The answers themselves are schedule-independent because the solver is
// sound and complete: which worker answers a query, and what learned
// clauses its session happens to hold, can change the time to an answer,
// never the answer. Hence bit-identical Skip/Extend streams, relation,
// verdict and certificate for any job count, chunk size or batching
// factor — the property the ParallelTest and SchedulerTest differential
// batteries lock in, and GoldenTest pins against recorded outputs.
//
//===----------------------------------------------------------------------===//

#include "core/Checker.h"

#include "core/FrontierKey.h"
#include "core/WeakestPrecondition.h"
#include "logic/Lower.h"
#include "obs/Clock.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "p4a/Typing.h"
#include "parallel/WorkerPool.h"
#include "smt/ProofLog.h"
#include "smt/SmtLibSolver.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <optional>
#include <unordered_map>
#include <unordered_set>

using namespace leapfrog;
using namespace leapfrog::core;
using namespace leapfrog::logic;

InitialSpec core::languageEquivalenceSpec(const p4a::Automaton &Left,
                                          p4a::StateRef QL,
                                          const p4a::Automaton &Right,
                                          p4a::StateRef QR) {
  (void)Left;
  (void)Right;
  InitialSpec Spec;
  Spec.TP = TemplatePair{Template{QL, 0}, Template{QR, 0}};
  Spec.Premise = Pure::mkTrue();
  return Spec;
}

detail::WarmRuntime::WarmRuntime() = default;
detail::WarmRuntime::~WarmRuntime() = default;

std::unique_ptr<smt::SmtSolver>
core::detail::resolveBackend(const std::string &Spec, bool Certify,
                             std::string &Error) {
  std::string Resolved = Spec;
  if (Certify && Resolved.rfind("smtlib:", 0) == 0)
    Resolved = "crosscheck:" + Resolved.substr(std::string("smtlib:").size());
  std::string Err;
  std::unique_ptr<smt::SmtSolver> S =
      smt::createSolverBackend(Resolved, &Err);
  if (!S)
    Error = "unrecognized solver backend '" + Spec + "': " + Err;
  return S;
}

CheckResult core::checkWithSpec(const p4a::Automaton &Left,
                                const p4a::Automaton &Right,
                                const InitialSpec &Spec,
                                const CheckOptions &Options) {
  // Backend resolution: a textual spec becomes an owned solver instance
  // for exactly this invocation, with core::Engine::create's failure
  // contract — an unparseable spec never runs the search and never
  // silently degrades to another backend; it comes back as a structured
  // BadRequest. An explicit Solver wins: it is already resolved.
  std::unique_ptr<smt::SmtSolver> Owned;
  CheckOptions Resolved = Options;
  if (!Options.Backend.empty() && Options.Solver == nullptr) {
    std::string Err;
    Owned = detail::resolveBackend(Options.Backend, Options.Certify, Err);
    if (!Owned) {
      CheckResult Rejected;
      Rejected.V = Verdict::BadRequest;
      Rejected.FailureReason = Err;
      return Rejected;
    }
    Resolved.Solver = Owned.get();
  }
  if (!Resolved.Solver)
    Resolved.Solver = &smt::defaultSolver();
  Resolved.Backend.clear();
  detail::WarmRuntime Runtime; // Torn down before Owned.
  return detail::runAlgorithm1(Left, Right, Spec, Resolved, Runtime);
}

namespace {

/// One entry of the current window. Workers write disjoint entries
/// during the decide phase; the replay reads them after the epoch.
struct WindowEntry {
  smt::BvFormulaRef Goal; ///< ψ lowered for its guard.
  bool Trivial = false;   ///< Goal lowered to ⊤: entailed, no query.
  bool Posed = false;
  bool Entailed = false; ///< The answer, valid when Posed.
  size_t PosedAtR = 0;   ///< R.size() the answer was computed against.
};

/// A backend plus one incremental session per template pair, lazily
/// opened; NextConjunct is the prefix of R already fed to a session.
/// Premises with a guard other than the goal's are filtered out of every
/// entailment (lowerEntailment stage 2), so the premise set a session
/// needs is exactly {P ∈ R | P.TP = TP} — a set that only grows, so each
/// conjunct is lowered and bit-blasted once per session.
struct SessionOwner {
  smt::SmtSolver *Solver = nullptr;
  struct Entry {
    std::unique_ptr<smt::SmtSolver::IncrementalSession> Session;
    size_t NextConjunct = 0;
  };
  std::unordered_map<TemplatePair, Entry, TemplatePairHasher> Sessions;

  /// Feeds the \p TP session the premises R[NextConjunct..UpTo) sharing
  /// its guard, then returns it ready for goal queries.
  smt::SmtSolver::IncrementalSession &
  primed(const smt::SessionLimits &Limits, const p4a::Automaton &Left,
         const p4a::Automaton &Right, const std::vector<GuardedFormula> &R,
         size_t UpTo, const TemplatePair &TP) {
    Entry &E = Sessions[TP];
    if (!E.Session)
      E.Session = Solver->openSession(Limits);
    for (; E.NextConjunct < UpTo; ++E.NextConjunct) {
      const GuardedFormula &P = R[E.NextConjunct];
      if (P.TP != TP)
        continue;
      E.Session->assertPremise(lowerPure(Left, Right, TP, P.Phi));
    }
    return *E.Session;
  }
};

/// Poses same-guard \p Goals against \p S, whose premises are R[0..AtR):
/// one goal is one entailment query; several share round-trips through
/// checkSatBatch, whose contract (smt/Solver.h) pins every answer to
/// what the individual query would have said.
void pose(smt::SmtSolver::IncrementalSession &S,
          const std::vector<WindowEntry *> &Goals, size_t AtR) {
  if (Goals.size() == 1) {
    Goals.front()->Entailed = S.isEntailed(Goals.front()->Goal);
  } else {
    std::vector<smt::BvFormulaRef> Negated;
    Negated.reserve(Goals.size());
    for (const WindowEntry *E : Goals)
      Negated.push_back(smt::BvFormula::mkNot(E->Goal));
    std::vector<smt::SatResult> Out;
    S.checkSatBatch(Negated, Out);
    for (size_t K = 0; K < Goals.size(); ++K)
      Goals[K]->Entailed = Out[K] == smt::SatResult::Unsat;
  }
  for (WindowEntry *E : Goals) {
    E->Posed = true;
    E->PosedAtR = AtR;
  }
}

} // namespace

CheckResult core::detail::runAlgorithm1(const p4a::Automaton &Left,
                                        const p4a::Automaton &Right,
                                        const InitialSpec &Spec,
                                        const CheckOptions &Options,
                                        WarmRuntime &Warm) {
  assert(p4a::isWellTyped(Left) && "left automaton is ill-typed");
  assert(p4a::isWellTyped(Right) && "right automaton is ill-typed");
  assert(Options.Solver && "runAlgorithm1 needs a resolved backend");

  obs::ScopedSpan CheckSpan("check.run", "check",
                            obs::TraceArgs().add("jobs", Options.Jobs));
  obs::StopWatch Watch;
  smt::SmtSolver &Primary = *Options.Solver;
  uint64_t SolverMicrosBefore = Primary.stats().TotalMicros;
  const size_t Jobs = std::max<size_t>(1, Options.Jobs);

  // Workers: independent instances of the primary's configuration, kept
  // in Warm so a long-lived engine reuses them (and, for external
  // backends, their solver processes). A backend that cannot spawn them
  // runs with zero workers, posing every query to the one instance.
  std::vector<std::unique_ptr<smt::SmtSolver>> &Spawned = Warm.WorkerSolvers;
  if (Jobs > 1 && Spawned.size() != Jobs) {
    Spawned.clear();
    for (size_t I = 0; I < Jobs; ++I) {
      std::unique_ptr<smt::SmtSolver> S = Primary.spawnWorker();
      if (!S) {
        Spawned.clear();
        break;
      }
      Spawned.push_back(std::move(S));
    }
  }
  const bool Parallel = Jobs > 1 && Spawned.size() == Jobs;
  if (Parallel && (!Warm.Pool || Warm.Pool->workers() != Jobs))
    Warm.Pool = std::make_unique<parallel::WorkerPool>(Jobs);

  // Session owners: one per worker, or the primary alone. A guard's
  // affinity owner is fixed for the whole run, so one session — not all
  // of them — pays the bit-blast of each guard's premise set and keeps
  // its learned clauses hot for the guard's whole conjunct stream.
  std::vector<SessionOwner> Owners(Parallel ? Jobs : 1);
  for (size_t I = 0; I < Owners.size(); ++I)
    Owners[I].Solver = Parallel ? Spawned[I].get() : &Primary;
  auto OwnerOf = [&](const TemplatePair &TP) -> SessionOwner & {
    return Owners[TemplatePairHasher()(TP) % Owners.size()];
  };

  CheckResult Result;

  // Proof capture (Options.Certify): the primary records its sessions and
  // one-shot queries (early refutation, done checks, the non-incremental
  // path) into Result.Proof; each worker records into a private log, so
  // no stream is shared across threads. Finish() adopts the worker logs
  // in worker-index order — a deterministic stream order, each stream a
  // self-contained slice sequence however stealing moved its goals.
  std::vector<std::unique_ptr<smt::ProofLog>> WorkerLogs;
  if (Options.Certify) {
    Result.Proof = std::make_shared<smt::ProofLog>();
    bool Attached = Primary.attachProofLog(Result.Proof.get());
    for (size_t I = 0; Attached && Parallel && I < Owners.size(); ++I) {
      WorkerLogs.push_back(std::make_unique<smt::ProofLog>());
      Attached = Owners[I].Solver->attachProofLog(WorkerLogs.back().get());
    }
    if (!Attached) {
      Primary.detachProofLog();
      for (size_t I = 0; I < WorkerLogs.size(); ++I)
        Owners[I].Solver->detachProofLog();
      Result.Proof.reset();
      Result.V = Verdict::BadRequest;
      Result.FailureReason =
          "certification requested, but the solver backend cannot capture "
          "proof streams (see smt::SmtSolver::attachProofLog); use the "
          "bitblast backend, or crosscheck for external solvers";
      return Result;
    }
  }

  CheckStats &St = Result.Stats;
  // Bulk-flush the run's counters into the process registry on every
  // exit path (budget stops and refutations included): one relaxed add
  // per counter per check, nothing on the per-iteration path.
  uint64_t EpochCount = 0;
  uint64_t MergeMicros = 0;
  struct MetricsFlush {
    const CheckStats &St;
    const uint64_t &EpochCount;
    const uint64_t &MergeMicros;
    ~MetricsFlush() {
      obs::Registry &M = obs::metrics();
      static obs::Counter &Runs = M.counter("check.runs");
      static obs::Counter &Iterations = M.counter("check.iterations");
      static obs::Counter &Extends = M.counter("check.extends");
      static obs::Counter &Skips = M.counter("check.skips");
      static obs::Counter &Queries = M.counter("check.smt_queries");
      Runs.add();
      Iterations.add(St.Iterations);
      Extends.add(St.Extends);
      Skips.add(St.Skips);
      Queries.add(St.SmtQueries);
      if (EpochCount == 0)
        return;
      static obs::Counter &Epochs = M.counter("parallel.epochs");
      static obs::Counter &Merge = M.counter("parallel.merge_stall_micros");
      Epochs.add(EpochCount);
      Merge.add(MergeMicros);
    }
  } Flush{St, EpochCount, MergeMicros};
  St.TemplatesLeft = allTemplates(Left).size();
  St.TemplatesRight = allTemplates(Right).size();

  // §5.1/§5.3: restrict attention to abstractly reachable template pairs.
  std::vector<TemplatePair> Pairs =
      Options.UseReachability
          ? computeReach(Left, Right, Spec.TP, Options.UseLeaps)
          : allPairs(Left, Right);
  St.ReachPairs = Pairs.size();

  // Frontier T: initial relation I, then extra user conjuncts (§7.1).
  // Window entries stay in T until their replay turn, so its size is the
  // frontier size of the paper's loop (PeakFrontier, budget messages).
  std::deque<GuardedFormula> T;
  std::unordered_set<std::string> Seen;
  auto Push = [&](GuardedFormula G) {
    if (G.Phi->kind() == Pure::Kind::True)
      return; // Trivial conjunct: entailed by anything.
    // Deduplicate up to α-renaming on the exact keys of FrontierKey.h
    // (see that header for the key discipline and the hash-collision
    // soundness bug it pins).
    if (!Seen.insert(detail::frontierKey(G)).second)
      return;
    T.push_back(std::move(G));
    St.PeakFrontier = std::max(St.PeakFrontier, T.size());
  };
  for (GuardedFormula &G : buildInitialConjuncts(Spec, Pairs))
    Push(std::move(G));

  std::vector<GuardedFormula> R;
  size_t FreshCounter = 0;
  PureRef Premise = Spec.Premise ? Spec.Premise : Pure::mkTrue();

  // Entailment queries posed by workers; folded into SmtQueries by
  // Finish(). Relaxed is enough — read only after the epoch barrier.
  std::atomic<uint64_t> WorkerQueries{0};

  // Every return path after this point runs Finish(). Session teardown
  // (which harvests SAT statistics into its backend) comes after the
  // wall stamp and before worker logs and statistics are folded into the
  // primary's, so SolverMicros sums solver time across threads (it can
  // exceed WallMicros — that surplus is the parallelism). Warm workers
  // survive into the next check; zeroing them after absorption keeps
  // every call's absorption disjoint.
  auto Finish = [&] {
    St.FinalConjuncts = R.size();
    St.WallMicros = Watch.elapsedMicros();
    for (SessionOwner &O : Owners)
      O.Sessions.clear();
    for (size_t I = 0; I < WorkerLogs.size(); ++I) {
      Result.Proof->adopt(*WorkerLogs[I]);
      Owners[I].Solver->detachProofLog();
    }
    if (Options.Certify)
      Primary.detachProofLog();
    if (Parallel) {
      for (SessionOwner &O : Owners) {
        Primary.absorbStats(O.Solver->stats());
        O.Solver->resetStats();
      }
    }
    St.SmtQueries += WorkerQueries.load(std::memory_order_relaxed);
    St.SolverMicros = Primary.stats().TotalMicros - SolverMicrosBefore;
  };
  auto OverBudget = [&](const char *What) {
    Result.V = Verdict::ResourceLimit;
    Result.FailureReason = std::string(What) + " limit reached with " +
                           std::to_string(T.size()) +
                           " frontier conjuncts outstanding";
    Finish();
  };

  // R-index of the most recent Extend per guard: the staleness bound.
  std::unordered_map<TemplatePair, size_t, TemplatePairHasher> LastExtend;

  // Applies one decided frontier entry: Skip bookkeeping, or Extend with
  // early refutation and precondition expansion. Returns false when the
  // run is over (the refutation path filled Result and ran Finish).
  auto Apply = [&](GuardedFormula Psi, bool Entailed) -> bool {
    if (Entailed) {
      ++St.Skips;
      if (Options.RecordTrace)
        Result.Trace.push_back(TraceStep{TraceStep::Kind::Skip, Psi, 0});
      return true;
    }

    // Extend: ψ is a novel restriction; its preconditions join the
    // frontier so closure under (leap) steps is re-established.
    ++St.Extends;
    LastExtend[Psi.TP] = R.size();
    R.push_back(Psi);

    // Early refutation. Every symbolic bisimulation entails ⋀R ∧ ⋀T
    // (invariant (3) in the proof of Theorem 4.6), so if φ already fails
    // against this conjunct no bisimulation can contain φ and the final
    // Done check is doomed — report NotEquivalent now. This also keeps
    // the checker total on inequivalent parsers with loops, where the
    // frontier itself need not drain (see DESIGN.md §5).
    if (Psi.TP == Spec.TP) {
      smt::BvFormulaRef Query = lowerPure(
          Left, Right, Spec.TP, Pure::mkImplies(Premise, Psi.Phi));
      bool Valid = Query->kind() == smt::BvFormula::Kind::True;
      if (!Valid && Query->kind() != smt::BvFormula::Kind::False) {
        ++St.SmtQueries;
        Valid = Primary.isValid(Query);
      }
      if (!Valid) {
        Result.V = Verdict::NotEquivalent;
        Result.FailureReason = "refuted: phi does not entail conjunct " +
                               Psi.str(Left, Right);
        Finish();
        return false;
      }
    }

    std::vector<GuardedFormula> Wp = weakestPrecondition(
        Left, Right, Psi, Pairs, Options.UseLeaps, FreshCounter);
    if (Options.RecordTrace)
      Result.Trace.push_back(
          TraceStep{TraceStep::Kind::Extend, Psi, Wp.size()});
    for (GuardedFormula &G : Wp)
      Push(std::move(G));
    return true;
  };

  const size_t Window =
      Options.Chunk ? Options.Chunk : std::max<size_t>(32, Jobs * 8);
  const size_t GoalBatch = std::max<size_t>(1, Options.GoalBatch);
  std::vector<WindowEntry> Goals;
  auto LowerEntry = [&](size_t I) {
    WindowEntry &E = Goals[I];
    E.Goal = lowerPure(Left, Right, T[I].TP, T[I].Phi);
    if (E.Goal->kind() == smt::BvFormula::Kind::True)
      E.Trivial = E.Posed = E.Entailed = true;
  };
  // Per-guard batching gate, persistent across windows: a guard gathers
  // upcoming goals into its replay-time decisions while its most recent
  // decision was a Skip, and poses one goal at a time after an Extend.
  // Skip-heavy stretches then share one round-trip across up to
  // GoalBatch entailed goals, while extend-heavy stretches cost exactly
  // one query per goal — pre-posing them against older premises loses,
  // because most answers go stale before their turn.
  std::unordered_map<TemplatePair, bool, TemplatePairHasher> Batchable;
  // Window indices per guard, in frontier order (GoalBatch > 1 only).
  std::unordered_map<TemplatePair, std::vector<size_t>, TemplatePairHasher>
      Groups;
  std::vector<std::vector<size_t>> Units;
  std::vector<std::vector<size_t>> Assignments(Parallel ? Jobs : 0);

  while (!T.empty()) {
    const size_t W = std::min(Window, T.size());
    Goals.assign(W, WindowEntry());

    if (Parallel) {
      // Decide phase, checked against the wall budget first so a window
      // of solver work is never launched unmetered. Premises below
      // FrozenR are immutable during the epoch; each unit writes only
      // its own entries, and the barrier publishes them back.
      if (Options.MaxWallMicros != 0 &&
          Watch.elapsedMicros() > Options.MaxWallMicros) {
        OverBudget("wall-clock");
        return Result;
      }
      const size_t FrozenR = R.size();
      obs::ScopedSpan EpochSpan("epoch.parallel", "parallel",
                                obs::TraceArgs()
                                    .add("tasks", uint64_t(W))
                                    .add("frozen_premises", uint64_t(FrozenR)));
      // Units: same-guard runs of at most GoalBatch entries in
      // first-appearance order, each dealt to its guard's affinity
      // worker. Stealing can still move a unit (the thief then primes
      // the guard's premises too) — load balance that never changes an
      // answer.
      Units.clear();
      std::unordered_map<TemplatePair, size_t, TemplatePairHasher> Open;
      for (size_t I = 0; I < W; ++I) {
        auto It = Open.find(T[I].TP);
        if (It == Open.end() || Units[It->second].size() >= GoalBatch) {
          Units.emplace_back();
          It = Open.insert_or_assign(T[I].TP, Units.size() - 1).first;
        }
        Units[It->second].push_back(I);
      }
      for (std::vector<size_t> &A : Assignments)
        A.clear();
      for (size_t U = 0; U < Units.size(); ++U)
        Assignments[TemplatePairHasher()(T[Units[U].front()].TP) % Jobs]
            .push_back(U);
      ++EpochCount;
      Warm.Pool->runEpoch(Assignments, [&](size_t WorkerId, size_t U) {
        // Name each pool thread's Perfetto track once; solver spans
        // recorded on this thread then land on the worker's own track.
        if (obs::traceSink()) {
          static thread_local bool TrackNamed = false;
          if (!TrackNamed) {
            obs::nameCurrentThread("worker-" + std::to_string(WorkerId));
            TrackNamed = true;
          }
        }
        std::vector<WindowEntry *> Need;
        for (size_t I : Units[U]) {
          LowerEntry(I);
          if (!Goals[I].Trivial)
            Need.push_back(&Goals[I]);
        }
        if (Need.empty())
          return;
        const TemplatePair &TP = T[Units[U].front()].TP;
        WorkerQueries.fetch_add(Need.size(), std::memory_order_relaxed);
        pose(Owners[WorkerId].primed(Options.Limits, Left, Right, R, FrozenR,
                                     TP),
             Need, FrozenR);
      });
    } else if (Options.UseIncremental) {
      for (size_t I = 0; I < W; ++I)
        LowerEntry(I);
    }
    if (GoalBatch > 1) {
      Groups.clear();
      for (size_t I = 0; I < W; ++I)
        if (!Goals[I].Posed)
          Groups[T[I].TP].push_back(I);
    }

    // Replay: the window in frontier order, against the live R.
    std::optional<obs::ScopedSpan> MergeSpan;
    obs::StopWatch MergeWatch;
    if (Parallel)
      MergeSpan.emplace("epoch.merge", "parallel");
    for (size_t I = 0; I < W; ++I) {
      if (++St.Iterations > Options.MaxIterations) {
        OverBudget("iteration");
        return Result;
      }
      if (Options.MaxWallMicros != 0 && (St.Iterations & 0xf) == 0 &&
          Watch.elapsedMicros() > Options.MaxWallMicros) {
        OverBudget("wall-clock");
        return Result;
      }
      const TemplatePair &TP = T.front().TP;
      WindowEntry &E = Goals[I];
      // The staleness rule of the file comment.
      auto Last = LastExtend.find(TP);
      bool Stands = E.Posed && (E.Entailed || Last == LastExtend.end() ||
                                Last->second < E.PosedAtR);
      if (Stands) {
        // The posed answer is the answer at this turn.
      } else if (Options.UseIncremental) {
        // Live decision by the guard's affinity owner. While the gate is
        // open, upcoming unposed same-guard entries of the window share
        // the physical call.
        std::vector<WindowEntry *> Members{&E};
        if (GoalBatch > 1 && Batchable[TP])
          for (size_t J : Groups[TP])
            if (J > I && !Goals[J].Posed && Members.size() < GoalBatch)
              Members.push_back(&Goals[J]);
        St.SmtQueries += Members.size();
        pose(OwnerOf(TP).primed(Options.Limits, Left, Right, R, R.size(), TP),
             Members, R.size());
      } else {
        // Non-incremental path: re-lower the full premise conjunction
        // through the Figure 6 chain; the smart constructors may already
        // have collapsed the query to a constant.
        LowerResult Lowered = lowerEntailment(Left, Right, R, T.front());
        E.Entailed = Lowered.Query->kind() == smt::BvFormula::Kind::True;
        if (!E.Entailed &&
            Lowered.Query->kind() != smt::BvFormula::Kind::False) {
          ++St.SmtQueries;
          E.Entailed = Primary.isValid(Lowered.Query);
        }
      }
      if (GoalBatch > 1 && !E.Trivial)
        Batchable[TP] = E.Entailed;

      GuardedFormula Psi = std::move(T.front());
      T.pop_front();
      if (!Apply(std::move(Psi), E.Entailed))
        return Result;
    }
    if (Parallel)
      MergeMicros += MergeWatch.elapsedMicros();
  }

  // Done: check φ ⊨ ⋀R. Conjuncts guarded by other template pairs hold
  // vacuously on φ's configurations; for matching guards the premise must
  // imply the conjunct.
  Result.V = Verdict::Equivalent;
  for (const GuardedFormula &Conjunct : R) {
    if (Conjunct.TP != Spec.TP)
      continue;
    smt::BvFormulaRef Query = lowerPure(
        Left, Right, Spec.TP, Pure::mkImplies(Premise, Conjunct.Phi));
    bool Valid;
    if (Query->kind() == smt::BvFormula::Kind::True) {
      Valid = true;
    } else if (Query->kind() == smt::BvFormula::Kind::False) {
      Valid = false;
    } else {
      ++St.SmtQueries;
      Valid = Primary.isValid(Query);
    }
    if (!Valid) {
      Result.V = Verdict::NotEquivalent;
      Result.FailureReason =
          "final check failed: phi does not entail conjunct " +
          Conjunct.str(Left, Right);
      break;
    }
  }
  if (Options.RecordTrace)
    Result.Trace.push_back(
        TraceStep{TraceStep::Kind::Done,
                  GuardedFormula{Spec.TP, Pure::mkTrue()}, 0});

  for (const GuardedFormula &G : R)
    St.FormulaNodes += G.Phi->size();

  if (Result.V == Verdict::Equivalent) {
    EquivalenceCertificate &Cert = Result.Certificate;
    Cert.Spec = Spec;
    Cert.Spec.Premise = Premise;
    Cert.Relation = R;
    Cert.UseLeaps = Options.UseLeaps;
    Cert.UseReachability = Options.UseReachability;
  }

  Finish();
  return Result;
}

CheckResult core::checkLanguageEquivalence(const p4a::Automaton &Left,
                                           p4a::StateRef QL,
                                           const p4a::Automaton &Right,
                                           p4a::StateRef QR,
                                           const CheckOptions &Options) {
  return checkWithSpec(Left, Right,
                       languageEquivalenceSpec(Left, QL, Right, QR),
                       Options);
}

CheckResult core::checkLanguageEquivalence(const p4a::Automaton &Left,
                                           const std::string &QL,
                                           const p4a::Automaton &Right,
                                           const std::string &QR,
                                           const CheckOptions &Options) {
  auto L = Left.findState(QL);
  auto R = Right.findState(QR);
  assert(L && R && "start state name not found");
  return checkLanguageEquivalence(Left, p4a::StateRef::normal(*L), Right,
                                  p4a::StateRef::normal(*R), Options);
}
