//===- Workloads.h - The benchmark's workloads ------------------*- C++ -*-===//
//
// Part of leapfrog-cc's benchmark (perfbench/). Not linked into the library.
//
//===----------------------------------------------------------------------===//

#ifndef LEAPFROG_PERFBENCH_WORKLOADS_H
#define LEAPFROG_PERFBENCH_WORKLOADS_H

#include "Common.h"

#include <cstddef>

namespace perfbench {

/// The Applicability pairs, examples/corpus/<name>_{left,right}.lfp, all
/// three equivalent (Table 2); the names are the pair_s.* suffixes.
inline constexpr const char *kApplicabilityPairs[] = {
    "service_provider", "enterprise", "variable_length_parsing"};
inline constexpr size_t kNumApplicabilityPairs = 3;

/// The order a timed pass decides them in (indices into
/// kApplicabilityPairs): Service Provider (~2 s) three times, before,
/// between and after the ~10 s pairs, so that its time averages several
/// moments of a noisy machine; the others once. A pair's time is the mean
/// of its decisions.
inline constexpr size_t kPassSchedule[] = {0, 1, 0, 2, 0};

/// How many times a run sets its workload up, half before its timed work
/// and half after it. setup_s is the fastest of them: a set-up takes 1-2
/// ms, and on a noisy machine slow phases of a few hundred milliseconds
/// to seconds move any median of set-ups by up to 30% from run to run.
/// The fastest of set-ups made at two moments far apart avoids them.
inline constexpr int kSetupReps = 400;

/// applicability-seq (Jobs = 1) and applicability-par (Jobs > 1). Returns
/// non-zero when set-up fails; verdict and gate misses go into \p Rep.
int runApplicability(const RunOptions &O, size_t Jobs, Report &Rep);

/// serve-mixed. Same return convention.
int runServeMixed(const RunOptions &O, Report &Rep);

} // namespace perfbench

#endif // LEAPFROG_PERFBENCH_WORKLOADS_H
