/**
 * @file
 * Seeded differential fuzz harness over the whole simulator stack.
 *
 * Each seed deterministically expands into a FuzzCase — a random
 * small machine configuration, workload, learner tuning, and policy
 * choice — which then runs through a fixed battery of property and
 * differential stages:
 *
 *  A. partition algebra: clampMin / trialPartition / moveAnchor /
 *     enumeratePartitions2 conserve totals, respect feasible floors,
 *     and enumerate exactly floor(total/stride) - 1 trials;
 *  B. phase machinery: PhaseTable ids stay bounded by its capacity
 *     under arbitrary signature streams, and the Markov predictor
 *     answers "don't know" (-1) before it has observed anything;
 *  C. an invariant-checked policy run: the chosen policy drives a
 *     CheckedCpu with per-cycle invariant sweeps, the learner's
 *     epoch history is cross-checked against its live state, and the
 *     MachineReport and epoch-trace JSON exports must round-trip
 *     exactly;
 *  D. checkpoint determinism: two copies of the same warm machine
 *     under cloned policies must stay bit-identical;
 *  E. OfflineExhaustive with jobs == 1 vs jobs == 3 must produce
 *     bit-identical epochs (2-thread cases only);
 *  F. HillClimbing vs PhaseHillClimbing on phase-free streams must
 *     produce identical anchor trajectories and machine states (a
 *     single stable phase gives the phase learner nothing to reuse);
 *  G. open-system churn: a randomized arrival schedule drives the
 *     chosen policy through mid-run thread attach/detach. Per-job
 *     lifecycle accounting must reconcile exactly (snapshots
 *     monotone, jobs on one context disjoint in time, per-job
 *     committed sums to the machine total), invariant sweeps at
 *     every 64th wake point (the engine runs on advanceToWake, so a
 *     skipped quiet stretch is one wake point) must stay clean under
 *     churn, a same-config rerun must be bit-identical, and a
 *     2-cell runGrid sweep must match at jobs == 1 vs jobs == 3;
 *  H. cross-learner differential: a randomly drawn pair from the
 *     full learner family (HILL, PHASE-HILL, BANDIT-UCB,
 *     BANDIT-EXP3, RL-Q) runs the same phase-free machine. Each
 *     learner must replay bit-identically under a fresh clone, emit
 *     an internally sane event stream, and keep one history record
 *     per epoch whose installed partitions conserve the register
 *     file; the pair must agree on epoch cadence (final cycle and
 *     history length), and each learner must survive a churn
 *     scenario with exact job accounting and a bit-identical cloned
 *     rerun;
 *  I. quiet-cycle skipping: the warm-up (SmtCpu::run) must match a
 *     step-every-cycle build, and the chosen policy plus a drawn
 *     STALL/DG/PDG each drive a skipping clone (the runner's
 *     advanceToWake) in lockstep with a step-every-cycle clone. At
 *     every wake point the machines must match exactly
 *     (diffMachineState: counters, occupancy, partition, round-robin
 *     pointers), and the report/epoch-trace JSON at the end.
 *
 * Failures come back as FuzzFindings tagged with their stage; a
 * failing case can be shrunk with minimizeFuzzCase, whose output is
 * the reproducer to quote in a bug report (seed + reduced shape).
 */

#ifndef SMTHILL_VALIDATE_DIFF_FUZZ_HH
#define SMTHILL_VALIDATE_DIFF_FUZZ_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/hill_climbing.hh"
#include "pipeline/smt_config.hh"
#include "workload/workloads.hh"

namespace smthill
{

/** One deterministic fuzz scenario, fully derived from its seed. */
struct FuzzCase
{
    std::uint64_t seed = 0;
    SmtConfig machine;    ///< small randomized machine
    Workload workload;    ///< random Table 2 combination
    HillConfig hill;      ///< randomized learner tuning
    int epochs = 6;       ///< measured epochs per stage
    Cycle warmup = 24 * 1024;
    int offlineStride = 8;   ///< enumeration stride for stage E
    int policyChoice = 0;    ///< 0 HILL, 1 PHASE-HILL, 2 DCRA, 3 FLUSH

    // Stage G open-system shape (drawn after every older field so
    // existing seeds keep expanding to the same A-F scenarios).
    int osJobs = 4;          ///< arrival-schedule length
    Cycle osMeanGap = 4096;  ///< mean inter-arrival gap, cycles
    bool osSla = false;      ///< draw per-job SLA weights

    // Stage H learner pair (drawn after the stage G fields so older
    // seeds keep expanding to the same A-G scenarios). Indices into
    // the learner family: 0 HILL, 1 PHASE-HILL, 2 BANDIT-UCB,
    // 3 BANDIT-EXP3, 4 RL-Q; always distinct.
    int learnerA = 0;
    int learnerB = 1;

    // Stage I extra policy (drawn after the stage H fields so older
    // seeds keep expanding to the same A-H scenarios): 0 STALL, 1 DG,
    // 2 PDG, run besides policyChoice.
    int quietExtra = 0;

    /** One-line description for logs and reproducer reports. */
    std::string str() const;
};

/** Expand @p seed into its scenario. */
FuzzCase makeFuzzCase(std::uint64_t seed);

/** One property/differential failure. */
struct FuzzFinding
{
    std::string stage;  ///< "A.partition-algebra", "E.offline-jobs", ...
    std::string check;  ///< invariant or property name
    std::string detail; ///< human-readable description
};

/** Outcome of one fuzz case. */
struct FuzzResult
{
    std::uint64_t seed = 0;
    std::vector<FuzzFinding> findings;

    bool passed() const { return findings.empty(); }

    /** One line per finding, prefixed with the stage. */
    std::string summary() const;
};

/** Run every stage of @p c. */
FuzzResult runFuzzCase(const FuzzCase &c);

/**
 * Shrink a failing case: repeatedly try fewer epochs, then fewer
 * threads, then less warmup, keeping each reduction that still
 * fails. @p budget bounds the number of re-runs. The result (still
 * failing, or @p c itself if nothing smaller fails) plus its seed is
 * the reproducer.
 */
FuzzCase minimizeFuzzCase(FuzzCase c, int budget = 12);

/** Aggregate over a seed range. */
struct FuzzSummary
{
    int casesRun = 0;
    std::vector<FuzzResult> failures;

    bool passed() const { return failures.empty(); }
};

/**
 * Run seeds [first_seed, first_seed + count). With @p verbose each
 * case prints a one-line PASS/FAIL; failures always print their
 * findings and minimized reproducer.
 */
FuzzSummary runFuzzSeeds(std::uint64_t first_seed, int count,
                         bool verbose = false);

} // namespace smthill

#endif // SMTHILL_VALIDATE_DIFF_FUZZ_HH
