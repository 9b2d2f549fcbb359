#include "validate/diff_fuzz.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/event_trace.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "core/offline_exhaustive.hh"
#include "core/partitioning.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "phase/markov_predictor.hh"
#include "phase/phase_hill.hh"
#include "phase/phase_table.hh"
#include "policy/bandit.hh"
#include "policy/dcra.hh"
#include "policy/dg.hh"
#include "policy/flush.hh"
#include "policy/rl_alloc.hh"
#include "policy/stall.hh"
#include "validate/checked_cpu.hh"
#include "workload/open_system.hh"

namespace smthill
{

namespace
{

const char *
policyName(int choice)
{
    switch (choice & 3) {
      case 0: return "HILL";
      case 1: return "PHASE-HILL";
      case 2: return "DCRA";
      default: return "FLUSH";
    }
}

void
finding(FuzzResult &r, const char *stage, const char *check,
        std::string detail)
{
    r.findings.push_back(
        FuzzFinding{stage, check, std::move(detail)});
}

/** Move accumulated invariant violations into @p r under @p stage. */
void
drainChecker(FuzzResult &r, const char *stage, InvariantChecker &chk)
{
    for (const InvariantViolation &v : chk.violations())
        finding(r, stage, v.check.c_str(), v.detail);
    if (chk.totalViolations() > chk.violations().size()) {
        finding(r, stage, "overflow",
                msg(chk.totalViolations() - chk.violations().size(),
                    " further violations not recorded"));
    }
    chk.clear();
}

/** Random non-negative shares summing exactly to @p total. */
Partition
randomPartition(Rng &rng, int threads, int total)
{
    Partition p;
    p.numThreads = threads;
    int remaining = total;
    for (int i = 0; i < threads - 1; ++i) {
        int s = static_cast<int>(
            rng.nextBelow(static_cast<std::uint64_t>(remaining) + 1));
        p.share[i] = s;
        remaining -= s;
    }
    p.share[threads - 1] = remaining;
    return p;
}

/** Build and warm the case's machine on its Table 2 workload. */
SmtCpu
buildFuzzCpu(const FuzzCase &c)
{
    SmtCpu cpu(c.machine, c.workload.makeGenerators(c.seed));
    cpu.run(c.warmup);
    return cpu;
}

/** Stage H learner-family names, indexed like FuzzCase::learnerA. */
const char *
learnerName(int which)
{
    switch (which % 5) {
      case 0: return "HILL";
      case 1: return "PHASE-HILL";
      case 2: return "BANDIT-UCB";
      case 3: return "BANDIT-EXP3";
      default: return "RL-Q";
    }
}

/** Build the @p which-th learner of the stage H family for @p c. */
std::unique_ptr<ResourcePolicy>
makeLearner(const FuzzCase &c, int which)
{
    switch (which % 5) {
      case 0:
        return std::make_unique<HillClimbing>(c.hill);
      case 1:
        return std::make_unique<PhaseHillClimbing>(c.hill);
      case 2:
      case 3: {
        BanditConfig b(c.hill);
        b.delta = std::max(c.hill.minShare,
                           std::max(1, c.machine.intRegs / 8));
        b.algo = which % 5 == 2 ? BanditAlgo::Ucb1 : BanditAlgo::Exp3;
        b.seed = c.seed;
        return std::make_unique<BanditAllocator>(b);
      }
      default: {
        RlConfig q(c.hill);
        q.seed = c.seed;
        return std::make_unique<RlAllocator>(q);
      }
    }
}

std::unique_ptr<ResourcePolicy>
makePolicy(const FuzzCase &c)
{
    switch (c.policyChoice & 3) {
      case 0:
        return std::make_unique<HillClimbing>(c.hill);
      case 1:
        return std::make_unique<PhaseHillClimbing>(c.hill);
      case 2:
        return std::make_unique<DcraPolicy>();
      default:
        return std::make_unique<FlushPolicy>();
    }
}

/** @return @p p's epoch history, or an empty one if it does not learn. */
const std::vector<EpochTraceRecord> &
historyOf(const ResourcePolicy &p)
{
    static const std::vector<EpochTraceRecord> kNone;
    const auto *hill = dynamic_cast<const HillClimbing *>(&p);
    return hill ? hill->epochHistory() : kNone;
}

// --- Stage A: partition algebra properties -------------------------

void
stagePartitionAlgebra(const FuzzCase &c, FuzzResult &r)
{
    static const char *kStage = "A.partition-algebra";
    Rng rng(c.seed ^ 0xA11AA11Au);

    for (int iter = 0; iter < 24; ++iter) {
        int nt = 2 + static_cast<int>(rng.nextBelow(kMaxThreads - 1));
        int total = nt + static_cast<int>(rng.nextBelow(257));
        Partition p = randomPartition(rng, nt, total);

        // clampMin conserves the total and, even when the requested
        // floor is infeasible, leaves every share at the best
        // feasible floor min(min_share, total / nt).
        int min_share = static_cast<int>(
            rng.nextBelow(static_cast<std::uint64_t>(total / nt) * 2 + 3));
        Partition q = p;
        q.clampMin(min_share);
        if (q.total() != total) {
            finding(r, kStage, "clamp_min.conservation",
                    msg("clampMin(", min_share, ") changed total ", total,
                        " -> ", q.total(), " (", p.str(), " -> ", q.str(),
                        ")"));
        }
        int floor_eff = std::min(min_share, total / nt);
        for (int i = 0; i < nt; ++i) {
            if (q.share[i] < floor_eff) {
                finding(r, kStage, "clamp_min.floor",
                        msg("clampMin(", min_share, ") left thread ", i,
                            " at ", q.share[i], ", feasible floor ",
                            floor_eff, " (", p.str(), " -> ", q.str(),
                            ")"));
            }
        }

        // trialPartition / moveAnchor conserve the total, never take
        // the favored thread down, and never push a donor below
        // min(its share, min_share) — including delta > anchor share.
        int favored = static_cast<int>(rng.nextBelow(nt));
        int delta = static_cast<int>(rng.nextBelow(65));
        int ms = static_cast<int>(rng.nextBelow(33));
        for (int which = 0; which < 2; ++which) {
            Partition t = which == 0
                              ? trialPartition(p, favored, delta, ms)
                              : moveAnchor(p, favored, delta, ms);
            const char *fn = which == 0 ? "trial" : "move_anchor";
            if (t.total() != total) {
                finding(r, kStage, msg(fn, ".conservation").c_str(),
                        msg(fn, "(favored=", favored, ", delta=", delta,
                            ", min=", ms, ") changed total ", total,
                            " -> ", t.total(), " (", p.str(), " -> ",
                            t.str(), ")"));
            }
            if (t.share[favored] < p.share[favored]) {
                finding(r, kStage, "favored_decreased",
                        msg(fn, " dropped favored thread ", favored,
                            " from ", p.share[favored], " to ",
                            t.share[favored]));
            }
            for (int i = 0; i < nt; ++i) {
                if (i == favored)
                    continue;
                int floor_i = std::min(p.share[i], ms);
                if (t.share[i] < floor_i) {
                    finding(r, kStage, "donor_below_floor",
                            msg(fn, " pushed thread ", i, " to ",
                                t.share[i], ", floor ", floor_i, " (",
                                p.str(), " -> ", t.str(), ")"));
                }
            }
        }

        // enumeratePartitions2: exactly floor(total/stride) - 1
        // trials, every share >= stride, every trial conserves the
        // total — including odd totals and stride near total / 2.
        int stride = 1 + static_cast<int>(rng.nextBelow(32));
        int tot2 = 2 * stride + static_cast<int>(rng.nextBelow(260));
        std::vector<Partition> trials = enumeratePartitions2(tot2, stride);
        int expected = tot2 / stride - 1;
        if (static_cast<int>(trials.size()) != expected) {
            finding(r, kStage, "enumerate2.count",
                    msg("enumeratePartitions2(", tot2, ", ", stride,
                        ") gave ", trials.size(), " trials, expected ",
                        expected));
        }
        for (std::size_t k = 0; k < trials.size(); ++k) {
            const Partition &t = trials[k];
            if (t.numThreads != 2 || t.total() != tot2 ||
                t.share[0] < stride || t.share[1] < stride ||
                t.share[0] != stride * static_cast<int>(k + 1)) {
                finding(r, kStage, "enumerate2.shape",
                        msg("enumeratePartitions2(", tot2, ", ", stride,
                            ") trial ", k, " is ", t.str()));
                break;
            }
        }
    }

    // The paper's configuration must always give exactly 127 trials.
    std::size_t paper = enumeratePartitions2(256, 2).size();
    if (paper != 127) {
        finding(r, kStage, "enumerate2.paper",
                msg("256/2 enumeration gave ", paper,
                    " trials, the paper's sweep has 127"));
    }
}

// --- Stage B: phase machinery properties ---------------------------

void
stagePhaseMachinery(const FuzzCase &c, FuzzResult &r)
{
    static const char *kStage = "B.phase-machinery";
    Rng rng(c.seed ^ 0xB22BB22Bu);

    // Phase IDs must stay bounded by the table capacity no matter
    // how many distinct signatures stream past (LRU recycling must
    // reuse IDs, or a long run grows the phase->partition maps of
    // every consumer without limit).
    int cap = 4 + static_cast<int>(rng.nextBelow(9));
    PhaseTable table(cap, 0.05);
    for (int s = 0; s < cap * 4; ++s) {
        BbvSignature sig;
        sig.weights.assign(kBbvEntries, 0.0);
        sig.weights[rng.nextBelow(kBbvEntries)] = 1.0;
        int id = table.classify(sig);
        if (id < 0 || id >= cap) {
            finding(r, kStage, "phase_table.id_bound",
                    msg("classification ", s, " returned phase id ", id,
                        ", table capacity ", cap));
            break;
        }
        if (table.size() > cap) {
            finding(r, kStage, "phase_table.size_bound",
                    msg("table holds ", table.size(), " phases, capacity ",
                        cap));
            break;
        }
    }

    // Before any observation the Markov predictor has no current
    // phase and must answer "don't know" (-1), not fabricate id 0.
    MarkovPhasePredictor cold(64);
    int first = cold.predict();
    if (first != -1) {
        finding(r, kStage, "markov.cold_start",
                msg("predictor with no history predicted phase ", first,
                    " instead of -1"));
    }
}

// --- Stage C: invariant-checked policy run + JSON round trips ------

void
stageCheckedRun(const FuzzCase &c, FuzzResult &r, const SmtCpu &warm)
{
    static const char *kStage = "C.invariants";

    std::unique_ptr<ResourcePolicy> policy = makePolicy(c);
    const auto *hill = dynamic_cast<const HillClimbing *>(policy.get());

    InvariantChecker::Options opts;
    opts.strictPartitionTotal = true; // every in-repo policy conserves
    CheckedCpu checked(warm, opts, 1);
    MachineSnapshot before = MachineSnapshot::capture(checked.cpu());

    policy->attach(checked.cpu());
    checked.checkNow();
    for (int e = 0; e < c.epochs; ++e) {
        for (Cycle t = 0; t < c.hill.epochSize; ++t) {
            policy->cycle(checked.cpu());
            checked.step();
        }
        policy->epoch(checked.cpu(),
                      static_cast<std::uint64_t>(e));
        checked.checkNow();
    }
    if (hill != nullptr)
        checked.checker().checkEpochTrace(*hill);
    drainChecker(r, kStage, checked.checker());

    // MachineReport JSON round trip.
    MachineSnapshot after = MachineSnapshot::capture(checked.cpu());
    MachineReport rep =
        buildReport(before, after, c.workload.benchmarks);
    std::string text = rep.toJson().dump();
    Json parsed;
    std::string err;
    if (!Json::parse(text, parsed, err)) {
        finding(r, "C.json", "report.parse", err);
    } else {
        MachineReport back;
        if (!machineReportFromJson(parsed, back, err)) {
            finding(r, "C.json", "report.import", err);
        } else if (!(back == rep)) {
            finding(r, "C.json", "report.round_trip",
                    "report changed across toJson/fromJson");
        }
    }

    // Epoch-trace JSON round trip.
    const std::vector<EpochTraceRecord> &history = historyOf(*policy);
    if (!history.empty()) {
        std::string ttext = epochTraceToJson(history, c.hill.metric).dump();
        Json tparsed;
        if (!Json::parse(ttext, tparsed, err)) {
            finding(r, "C.json", "trace.parse", err);
        } else {
            std::vector<EpochTraceRecord> recs;
            if (!epochTraceFromJson(tparsed, recs, err)) {
                finding(r, "C.json", "trace.import", err);
            } else if (!(recs == history)) {
                finding(r, "C.json", "trace.round_trip",
                        msg("trace changed across toJson/fromJson (",
                            recs.size(), " vs ", history.size(),
                            " records)"));
            }
        }
    }
}

/** Field-wise comparison of two runs that must be bit-identical. */
void
compareRuns(FuzzResult &r, const char *stage, const char *what,
            const RunResult &a, const RunResult &b, int threads)
{
    if (a.finalSnapshot.cycle != b.finalSnapshot.cycle) {
        finding(r, stage, "cycle_divergence",
                msg(what, ": final cycles ", a.finalSnapshot.cycle,
                    " vs ", b.finalSnapshot.cycle));
    }
    for (int i = 0; i < threads; ++i) {
        if (a.stats.committed[i] != b.stats.committed[i] ||
            a.stats.fetched[i] != b.stats.fetched[i] ||
            a.stats.flushed[i] != b.stats.flushed[i] ||
            a.stats.mispredicts[i] != b.stats.mispredicts[i]) {
            finding(r, stage, "counter_divergence",
                    msg(what, ": thread ", i, " counters diverge "
                        "(committed ", a.stats.committed[i], " vs ",
                        b.stats.committed[i], ", fetched ",
                        a.stats.fetched[i], " vs ", b.stats.fetched[i],
                        ")"));
        }
        if (a.overallIpc.ipc[i] != b.overallIpc.ipc[i]) {
            finding(r, stage, "ipc_divergence",
                    msg(what, ": thread ", i, " IPC ",
                        a.overallIpc.ipc[i], " vs ",
                        b.overallIpc.ipc[i]));
        }
    }
}

// --- Stage D: checkpoint-copy determinism --------------------------

void
stageCopyDeterminism(const FuzzCase &c, FuzzResult &r,
                     const SmtCpu &warm)
{
    static const char *kStage = "D.copy-determinism";

    std::unique_ptr<ResourcePolicy> p1 = makePolicy(c);
    std::unique_ptr<ResourcePolicy> p2 = p1->clone();

    RunResult r1 =
        runPolicyOn(warm, *p1, c.epochs, c.hill.epochSize);
    RunResult r2 =
        runPolicyOn(warm, *p2, c.epochs, c.hill.epochSize);
    compareRuns(r, kStage, policyName(c.policyChoice), r1, r2,
                c.machine.numThreads);
}

// --- Stage E: offline serial vs parallel sweep ---------------------

void
stageOfflineJobs(const FuzzCase &c, FuzzResult &r, const SmtCpu &warm)
{
    static const char *kStage = "E.offline-jobs";
    if (c.machine.numThreads != 2)
        return; // the exhaustive learner is 2-context only

    OfflineConfig oc;
    oc.epochSize = c.hill.epochSize;
    oc.stride = c.offlineStride;
    oc.metric = c.hill.metric;
    oc.singleIpc.fill(1.0);
    oc.keepCurves = true;

    oc.jobs = 1;
    OfflineExhaustive serial(oc);
    oc.jobs = 3;
    OfflineExhaustive parallel(oc);

    // Two deliberate value-semantics clones per fuzz case; the
    // divergence check depends on them being full copies.
    SmtCpu a = warm.checkpoint();
    SmtCpu b = warm.checkpoint();
    for (int e = 0; e < 2; ++e) {
        OfflineEpoch ea = serial.stepEpoch(a);
        OfflineEpoch eb = parallel.stepEpoch(b);
        if (!(ea.best == eb.best)) {
            finding(r, kStage, "best_partition",
                    msg("epoch ", e, ": 1-job best ", ea.best.str(),
                        " vs 3-job best ", eb.best.str()));
        }
        if (ea.metricValue != eb.metricValue) {
            finding(r, kStage, "metric_value",
                    msg("epoch ", e, ": 1-job metric ", ea.metricValue,
                        " vs 3-job ", eb.metricValue));
        }
        if (ea.curve != eb.curve || ea.curveShares != eb.curveShares) {
            finding(r, kStage, "trial_curve",
                    msg("epoch ", e,
                        ": metric-vs-partition curves diverge between "
                        "1-job and 3-job sweeps"));
        }
    }
    for (int i = 0; i < 2; ++i) {
        if (a.stats().committed[i] != b.stats().committed[i]) {
            finding(r, kStage, "machine_divergence",
                    msg("thread ", i, " committed ",
                        a.stats().committed[i], " (1 job) vs ",
                        b.stats().committed[i], " (3 jobs)"));
        }
    }
}

// --- Stage F: HILL vs PHASE-HILL on phase-free streams -------------

void
stagePhaseFreeDiff(const FuzzCase &c, FuzzResult &r)
{
    static const char *kStage = "F.phase-free-diff";

    // Synthesize programs with no phase behavior at all: on a single
    // stable phase the predictor always forecasts "same phase", so
    // overrideAnchor must be the identity and PHASE-HILL must walk
    // exactly HILL's anchor trajectory.
    Rng rng(c.seed ^ 0xF00DF00Du);
    std::vector<StreamGenerator> gens;
    for (int i = 0; i < c.machine.numThreads; ++i) {
        ProfileParams pp;
        pp.name = msg("fuzz-flat-", i);
        pp.seed = c.seed * 1000 + static_cast<std::uint64_t>(i) + 1;
        pp.freqClass = 0;
        pp.phaseSwing = 0.0;
        pp.numBlocks = 8 + static_cast<int>(rng.nextBelow(17));
        pp.avgBlockLen = 6 + static_cast<int>(rng.nextBelow(7));
        pp.loadFrac = 0.20 + 0.10 * rng.nextDouble();
        pp.serialFrac = 0.20 + 0.30 * rng.nextDouble();
        pp.pLoadWarm = 0.01 * rng.nextDouble();
        pp.pLoadCold = 0.002 * rng.nextDouble();
        gens.emplace_back(buildProfile(pp),
                          static_cast<std::uint64_t>(i));
    }
    SmtCpu flat(c.machine, std::move(gens));
    flat.run(16 * 1024);

    HillClimbing plain(c.hill);
    PhaseHillClimbing phased(c.hill);
    EventTrace eva;
    EventTrace evb;
    plain.setEventTrace(&eva, 0);
    phased.setEventTrace(&evb, 0);

    RunResult ra =
        runPolicyOn(flat, plain, c.epochs, c.hill.epochSize);
    RunResult rb =
        runPolicyOn(flat, phased, c.epochs, c.hill.epochSize);

    // Event-level equivalence: outside the phase category (which only
    // PHASE-HILL emits), the two runs must produce the same stream;
    // the first divergent event localizes a drift to the exact
    // decision that caused it.
    auto comparable = [](const EventTrace &t) {
        std::vector<SimEvent> out;
        for (SimEvent &e : t.events()) {
            if (e.cat != "phase")
                out.push_back(std::move(e));
        }
        return out;
    };
    EventDiff d = diffEvents(comparable(eva), comparable(evb));
    if (d.diverged) {
        finding(r, kStage, "event_divergence",
                msg("HILL vs PHASE-HILL: ", d.description));
    }

    // Both streams must be internally sane: per (pid, tid) track, sim
    // time only moves forward.
    InvariantChecker events_chk;
    events_chk.checkEventStream(eva.events());
    events_chk.checkEventStream(evb.events());
    drainChecker(r, kStage, events_chk);

    const std::vector<EpochTraceRecord> &ta = plain.epochHistory();
    const std::vector<EpochTraceRecord> &tb = phased.epochHistory();
    if (ta.size() != tb.size()) {
        finding(r, kStage, "trace_length",
                msg("HILL traced ", ta.size(), " epochs, PHASE-HILL ",
                    tb.size()));
        return;
    }
    for (std::size_t e = 0; e < ta.size(); ++e) {
        const EpochTraceRecord &ea = ta[e];
        const EpochTraceRecord &eb = tb[e];
        if (!(ea.anchor == eb.anchor) || !(ea.trial == eb.trial)) {
            finding(r, kStage, "anchor_divergence",
                    msg("epoch ", e, ": HILL anchor ", ea.anchor.str(),
                        " trial ", ea.trial.str(), " vs PHASE-HILL ",
                        eb.anchor.str(), " trial ", eb.trial.str()));
            break;
        }
    }
    compareRuns(r, kStage, "HILL vs PHASE-HILL", ra, rb,
                c.machine.numThreads);
}

// --- Stage G: open-system churn ------------------------------------

/** Bit-exact comparison of two open-system runs of one config. */
bool
sameOpenSystemRun(const OpenSystemResult &a, const OpenSystemResult &b)
{
    if (a.cycles != b.cycles || a.committedTotal != b.committedTotal ||
        a.completedJobs != b.completedJobs ||
        a.horizonJobs != b.horizonJobs ||
        a.maxQueueDepth != b.maxQueueDepth ||
        a.jobs.size() != b.jobs.size())
        return false;
    for (std::size_t j = 0; j < a.jobs.size(); ++j) {
        const JobRecord &ja = a.jobs[j];
        const JobRecord &jb = b.jobs[j];
        if (ja.arriveCycle != jb.arriveCycle ||
            ja.attachCycle != jb.attachCycle ||
            ja.departCycle != jb.departCycle ||
            ja.context != jb.context || ja.attached != jb.attached ||
            ja.completed != jb.completed ||
            !(ja.atAttach == jb.atAttach) ||
            !(ja.atDepart == jb.atDepart))
            return false;
    }
    return true;
}

/** Per-job lifecycle accounting identities over one finished run. */
void
checkJobAccounting(const FuzzCase &c, FuzzResult &r, const char *stage,
                   const OpenSystemResult &res)
{
    std::uint64_t job_committed = 0;
    // Per-context job residency intervals, for disjointness.
    std::vector<std::vector<std::pair<Cycle, Cycle>>> spans(
        static_cast<std::size_t>(c.machine.numThreads));

    for (const JobRecord &job : res.jobs) {
        job_committed += job.committed();
        if (!job.attached) {
            if (job.residency() != 0 || job.committed() != 0) {
                finding(r, stage, "unplaced_job_ran",
                        msg("job ", job.jobId, " never attached but "
                            "shows residency ", job.residency(),
                            " / committed ", job.committed()));
            }
            continue;
        }
        if (job.context < 0 || job.context >= c.machine.numThreads) {
            finding(r, stage, "context_range",
                    msg("job ", job.jobId, " on context ", job.context,
                        ", machine has ", c.machine.numThreads));
            continue;
        }
        if (job.attachCycle < job.arriveCycle) {
            finding(r, stage, "attach_before_arrival",
                    msg("job ", job.jobId, " attached at ",
                        job.attachCycle, ", arrived at ",
                        job.arriveCycle));
        }
        // Snapshots bracket the residency: monotone in every counter.
        const ContextSnapshot &s0 = job.atAttach;
        const ContextSnapshot &s1 = job.atDepart;
        if (s1.cycle < s0.cycle || s1.committed < s0.committed ||
            s1.fetched < s0.fetched || s1.flushed < s0.flushed ||
            s1.branches < s0.branches ||
            s1.mispredicts < s0.mispredicts ||
            s1.dl1Misses < s0.dl1Misses || s1.l2Misses < s0.l2Misses) {
            finding(r, stage, "snapshot_monotonicity",
                    msg("job ", job.jobId,
                        " depart snapshot below attach snapshot"));
        }
        if (job.completed) {
            if (job.committed() < job.instructions ||
                job.committed() >=
                    job.instructions +
                        static_cast<std::uint64_t>(
                            c.machine.commitWidth)) {
                finding(r, stage, "departure_bound",
                        msg("job ", job.jobId, " departed at ",
                            job.committed(), " committed, bound ",
                            job.instructions, " (commit width ",
                            c.machine.commitWidth, ")"));
            }
            if (job.residency() == 0) {
                finding(r, stage, "zero_residency",
                        msg("completed job ", job.jobId,
                            " has zero residency"));
            }
        }
        spans[static_cast<std::size_t>(job.context)].push_back(
            {job.attachCycle, job.departCycle});
    }

    // A reused context holds one job at a time: residency intervals
    // on each context must be pairwise disjoint.
    for (std::size_t ctx = 0; ctx < spans.size(); ++ctx) {
        auto &v = spans[ctx];
        std::sort(v.begin(), v.end());
        for (std::size_t k = 1; k < v.size(); ++k) {
            if (v[k].first < v[k - 1].second) {
                finding(r, stage, "context_overlap",
                        msg("context ", ctx, " holds two jobs at once ([",
                            v[k - 1].first, ",", v[k - 1].second,
                            ") and [", v[k].first, ",", v[k].second,
                            "))"));
            }
        }
    }

    // Idle contexts are parked (squashed, disabled), so every
    // committed instruction belongs to exactly one job's residency.
    if (job_committed != res.committedTotal) {
        finding(r, stage, "committed_attribution",
                msg("per-job committed sums to ", job_committed,
                    ", machine committed ", res.committedTotal));
    }

    // The per-job report keeps jobs with distinct lifetimes on
    // distinct rows: one row per job that ever ran.
    std::size_t resident_jobs = 0;
    for (const JobRecord &job : res.jobs)
        if (job.residency() > 0)
            ++resident_jobs;
    MachineReport rep = buildJobReport(res);
    if (rep.threads.size() != resident_jobs) {
        finding(r, stage, "job_report_rows",
                msg("job report has ", rep.threads.size(),
                    " rows for ", resident_jobs, " resident jobs"));
    }
}

void
stageOpenSystemChurn(const FuzzCase &c, FuzzResult &r)
{
    static const char *kStage = "G.open-system";

    OpenSystemConfig oc;
    oc.seed = c.seed ^ 0x05E205E2u;
    oc.arrivalRate = 1.0 / static_cast<double>(c.osMeanGap);
    oc.numJobs = c.osJobs;
    oc.minJobInstructions = 3 * 1024;
    oc.maxJobInstructions = 8 * 1024;
    oc.epochSize = c.hill.epochSize;
    oc.horizon = 512 * 1024; // bounded even if a policy livelocks
    oc.slaWeights = c.osSla;

    OpenSystem sys(c.machine, oc);

    std::unique_ptr<ResourcePolicy> p1 = makePolicy(c);
    std::unique_ptr<ResourcePolicy> p2 = p1->clone();

    // Run 1: full-machine invariant sweeps under churn, at every 64th
    // wake point (the observer fires per advanceToWake call, so a
    // skipped quiet stretch counts once).
    InvariantChecker chk;
    std::uint64_t tick = 0;
    sys.setCycleObserver([&](const SmtCpu &m) {
        if (++tick % 64 == 0)
            chk.checkCpu(m);
    });
    OpenSystemResult r1 = sys.run(*p1);
    drainChecker(r, kStage, chk);
    checkJobAccounting(c, r, kStage, r1);

    // Run 2: same config + cloned policy must be bit-identical.
    sys.setCycleObserver(nullptr);
    OpenSystemResult r2 = sys.run(*p2);
    if (!sameOpenSystemRun(r1, r2)) {
        finding(r, kStage, "rerun_divergence",
                msg("same-config rerun diverged (", r1.cycles, " vs ",
                    r2.cycles, " cycles, ", r1.committedTotal, " vs ",
                    r2.committedTotal, " committed)"));
    }

    // Grid cross-check: a 2-cell lambda sweep reduced serially must
    // not depend on the worker count.
    auto sweep = [&](int jobs) {
        std::vector<OpenSystemResult> out(2);
        runGrid(2, jobs, [&](std::size_t cell) {
            OpenSystemConfig cc = oc;
            cc.arrivalRate =
                oc.arrivalRate / static_cast<double>(cell + 1);
            OpenSystem s(c.machine, cc);
            std::unique_ptr<ResourcePolicy> p = makePolicy(c);
            out[cell] = s.run(*p);
        });
        return out;
    };
    std::vector<OpenSystemResult> serial = sweep(1);
    std::vector<OpenSystemResult> threaded = sweep(3);
    for (std::size_t cell = 0; cell < serial.size(); ++cell) {
        if (!sameOpenSystemRun(serial[cell], threaded[cell])) {
            finding(r, kStage, "grid_jobs_divergence",
                    msg("sweep cell ", cell,
                        " diverges between runGrid jobs=1 and jobs=3"));
        }
    }
}

// --- Stage H: cross-learner differential ---------------------------

void
stageLearnerPairDiff(const FuzzCase &c, FuzzResult &r)
{
    static const char *kStage = "H.learner-pair";

    // Phase-free machine, stage-F construction with its own draw
    // stream so F's scenarios stay byte-identical.
    Rng rng(c.seed ^ 0x48AA48AAu);
    std::vector<StreamGenerator> gens;
    for (int i = 0; i < c.machine.numThreads; ++i) {
        ProfileParams pp;
        pp.name = msg("fuzz-pair-", i);
        pp.seed = c.seed * 1000 + static_cast<std::uint64_t>(i) + 1;
        pp.freqClass = 0;
        pp.phaseSwing = 0.0;
        pp.numBlocks = 8 + static_cast<int>(rng.nextBelow(17));
        pp.avgBlockLen = 6 + static_cast<int>(rng.nextBelow(7));
        pp.loadFrac = 0.20 + 0.10 * rng.nextDouble();
        pp.serialFrac = 0.20 + 0.30 * rng.nextDouble();
        pp.pLoadWarm = 0.01 * rng.nextDouble();
        pp.pLoadCold = 0.002 * rng.nextDouble();
        gens.emplace_back(buildProfile(pp),
                          static_cast<std::uint64_t>(i));
    }
    SmtCpu flat(c.machine, std::move(gens));
    flat.run(16 * 1024);

    const int pair[2] = {c.learnerA, c.learnerB};
    std::array<Cycle, 2> finalCycle{};
    std::array<std::size_t, 2> traceLen{};
    for (int k = 0; k < 2; ++k) {
        const char *who = learnerName(pair[k]);
        std::unique_ptr<ResourcePolicy> p = makeLearner(c, pair[k]);
        std::unique_ptr<ResourcePolicy> q = p->clone();
        EventTrace evt;
        p->setEventTrace(&evt, 0);

        // Clone determinism: a fresh clone must replay the original
        // bit for bit — including the bandit/RL rng stream position.
        RunResult ra =
            runPolicyOn(flat, *p, c.epochs, c.hill.epochSize);
        RunResult rb =
            runPolicyOn(flat, *q, c.epochs, c.hill.epochSize);
        compareRuns(r, kStage, who, ra, rb, c.machine.numThreads);
        finalCycle[k] = ra.finalSnapshot.cycle;
        const std::vector<EpochTraceRecord> &history = historyOf(*p);
        traceLen[k] = history.size();

        // The decision-audit event stream must be internally sane.
        InvariantChecker chk;
        chk.checkEventStream(evt.events());
        drainChecker(r, kStage, chk);

        // Epoch-trace sanity: one record per boundary; any installed
        // partition conserves the register file; metrics are finite.
        if (history.size() != static_cast<std::size_t>(c.epochs)) {
            finding(r, kStage, "trace_length",
                    msg(who, " traced ", history.size(), " epochs of ",
                        c.epochs));
        }
        for (std::size_t e = 0; e < history.size(); ++e) {
            const EpochTraceRecord &rec = history[e];
            if (rec.partitioned &&
                rec.trial.total() != c.machine.intRegs) {
                finding(r, kStage, "partition_conservation",
                        msg(who, " epoch ", e, " ran partition ",
                            rec.trial.str(), ", register file ",
                            c.machine.intRegs));
            }
            if (!std::isfinite(rec.metricValue)) {
                finding(r, kStage, "metric_finite",
                        msg(who, " epoch ", e,
                            " has non-finite metric value"));
            }
        }
    }

    // The pair runs the same machine on the same cadence: epoch
    // bookkeeping (not learning decisions) must align exactly.
    if (finalCycle[0] != finalCycle[1]) {
        finding(r, kStage, "cycle_alignment",
                msg(learnerName(pair[0]), " ended at cycle ",
                    finalCycle[0], ", ", learnerName(pair[1]), " at ",
                    finalCycle[1]));
    }
    if (traceLen[0] != traceLen[1]) {
        finding(r, kStage, "trace_alignment",
                msg(learnerName(pair[0]), " traced ", traceLen[0],
                    " epochs, ", learnerName(pair[1]), " traced ",
                    traceLen[1]));
    }

    // Churn leg: each learner of the pair survives a randomized
    // arrival schedule with exact job accounting, and a cloned rerun
    // stays bit-identical.
    OpenSystemConfig oc;
    oc.seed = c.seed ^ 0x48AA0001u;
    oc.arrivalRate = 1.0 / static_cast<double>(c.osMeanGap);
    oc.numJobs = c.osJobs;
    oc.minJobInstructions = 3 * 1024;
    oc.maxJobInstructions = 8 * 1024;
    oc.epochSize = c.hill.epochSize;
    oc.horizon = 256 * 1024;
    oc.slaWeights = c.osSla;
    OpenSystem sys(c.machine, oc);
    for (int k = 0; k < 2; ++k) {
        std::unique_ptr<ResourcePolicy> p = makeLearner(c, pair[k]);
        std::unique_ptr<ResourcePolicy> q = p->clone();
        OpenSystemResult r1 = sys.run(*p);
        checkJobAccounting(c, r, kStage, r1);
        OpenSystemResult r2 = sys.run(*q);
        if (!sameOpenSystemRun(r1, r2)) {
            finding(r, kStage, "churn_rerun_divergence",
                    msg(learnerName(pair[k]),
                        ": same-config churn rerun diverged (",
                        r1.cycles, " vs ", r2.cycles, " cycles, ",
                        r1.committedTotal, " vs ", r2.committedTotal,
                        " committed)"));
        }
    }
}

// --- Stage I: quiet-cycle skipping vs step-every-cycle -------------

/** Stage I extra-policy names, indexed like FuzzCase::quietExtra. */
const char *
quietExtraName(int which)
{
    switch (which % 3) {
      case 0: return "STALL";
      case 1: return "DG";
      default: return "PDG";
    }
}

std::unique_ptr<ResourcePolicy>
makeQuietExtra(int which)
{
    switch (which % 3) {
      case 0: return std::make_unique<StallPolicy>();
      case 1: return std::make_unique<DgPolicy>();
      default: return std::make_unique<PdgPolicy>();
    }
}

/** The report and (learners only) epoch-trace JSON of one clone. */
std::string
exportsOf(const FuzzCase &c, const MachineSnapshot &before,
          const SmtCpu &cpu, const ResourcePolicy &policy)
{
    std::string out = buildReport(before, MachineSnapshot::capture(cpu),
                                  c.workload.benchmarks)
                          .toJson()
                          .dump();
    const std::vector<EpochTraceRecord> &history = historyOf(policy);
    if (!history.empty())
        out += epochTraceToJson(history, c.hill.metric).dump();
    return out;
}

/**
 * Drive two copies of the same machine, @p skip under @p policy and
 * @p ref under its clone: @p ref calls cycle() and step() every
 * cycle, @p skip goes through the runner's advanceToWake(). @p ref
 * catches up to every wake point of @p skip, where the machines must
 * match exactly; at the end, so must their exports.
 */
void
lockstepQuietSkip(const FuzzCase &c, FuzzResult &r, SmtCpu skip,
                  SmtCpu ref, ResourcePolicy &policy, const char *what)
{
    static const char *kStage = "I.quiet-skip";

    std::unique_ptr<ResourcePolicy> ref_policy = policy.clone();

    policy.attach(skip);
    ref_policy->attach(ref);
    const MachineSnapshot before = MachineSnapshot::capture(ref);

    for (int e = 0; e < c.epochs; ++e) {
        const Cycle end = skip.now() + c.hill.epochSize;
        bool probe = true;
        while (skip.now() < end) {
            advanceToWake(skip, policy, end, probe);
            while (ref.now() < skip.now()) {
                ref_policy->cycle(ref);
                ref.step();
            }
            std::string d = diffMachineState(ref, skip);
            if (!d.empty()) {
                finding(r, kStage, "state_divergence",
                        msg(what, ": epoch ", e, " wake point ",
                            skip.now(), ": ", d));
                return;
            }
        }
        policy.epoch(skip, static_cast<std::uint64_t>(e));
        ref_policy->epoch(ref, static_cast<std::uint64_t>(e));
        std::string d = diffMachineState(ref, skip);
        if (!d.empty()) {
            finding(r, kStage, "epoch_divergence",
                    msg(what, ": after epoch ", e, ": ", d));
            return;
        }
    }
    if (exportsOf(c, before, skip, policy) !=
        exportsOf(c, before, ref, *ref_policy)) {
        finding(r, kStage, "export_divergence",
                msg(what, ": report/epoch-trace JSON differ"));
    }
}

void
stageQuietSkip(const FuzzCase &c, FuzzResult &r, const SmtCpu &warm)
{
    static const char *kStage = "I.quiet-skip";

    // The warm-up path: run() skips with no policy at all.
    SmtCpu stepped(c.machine, c.workload.makeGenerators(c.seed));
    for (Cycle t = 0; t < c.warmup; ++t)
        stepped.step();
    std::string d = diffMachineState(stepped, warm);
    if (!d.empty())
        finding(r, kStage, "warmup_divergence", d);

    std::unique_ptr<ResourcePolicy> p = makePolicy(c);
    lockstepQuietSkip(c, r, warm, warm, *p, policyName(c.policyChoice));
    std::unique_ptr<ResourcePolicy> extra = makeQuietExtra(c.quietExtra);
    lockstepQuietSkip(c, r, warm, warm, *extra,
                      quietExtraName(c.quietExtra));
}

} // namespace

// --- Case construction ---------------------------------------------

FuzzCase
makeFuzzCase(std::uint64_t seed)
{
    Rng rng(seed ^ 0xD1FFD1FFD1FFD1FFull);
    FuzzCase c;
    c.seed = seed;

    int nt = 2 + static_cast<int>(rng.nextBelow(3)); // 2..4 contexts
    c.workload = randomWorkload(nt, seed);

    SmtConfig &m = c.machine;
    m.numThreads = nt;
    m.fetchWidth = 4 << rng.nextBelow(2); // 4 or 8
    m.issueWidth = m.fetchWidth;
    m.commitWidth = m.fetchWidth;
    m.fetchThreadsPerCycle = 1 + static_cast<int>(rng.nextBelow(2));
    m.ifqSize =
        m.fetchWidth * (2 + static_cast<int>(rng.nextBelow(2)));
    m.intIqSize = 16 + 8 * static_cast<int>(rng.nextBelow(3));
    m.fpIqSize = m.intIqSize;
    m.lsqSize = 24 + 8 * static_cast<int>(rng.nextBelow(3));
    m.robSize = 48 + 16 * static_cast<int>(rng.nextBelow(4));
    m.intRegs = 32 + 16 * static_cast<int>(rng.nextBelow(4));
    m.fpRegs = m.intRegs;
    m.intAddUnits = 2 + static_cast<int>(rng.nextBelow(3));
    m.intMulUnits = 1 + static_cast<int>(rng.nextBelow(2));
    m.memPorts = 1 + static_cast<int>(rng.nextBelow(3));
    m.fpAddUnits = 1 + static_cast<int>(rng.nextBelow(2));
    m.fpMulUnits = 1 + static_cast<int>(rng.nextBelow(2));
    m.gshareEntries = 1024;
    m.bimodalEntries = 512;
    m.metaEntries = 1024;
    m.btbEntries = 256u << rng.nextBelow(2);
    m.btbWays = 2u << rng.nextBelow(2);

    bool small_l1 = rng.chance(0.5);
    std::uint32_t l1_ways = small_l1 ? 1 : 2;
    std::uint64_t l1_bytes = small_l1 ? 4 * 1024 : 8 * 1024;
    m.mem.il1 = CacheConfig{"il1", l1_bytes, 64, l1_ways};
    m.mem.dl1 = CacheConfig{"dl1", l1_bytes, 64, l1_ways};
    bool small_l2 = rng.chance(0.5);
    m.mem.ul2 = CacheConfig{"ul2",
                            small_l2 ? 32 * 1024ull : 64 * 1024ull, 64,
                            small_l2 ? 2u : 4u};
    m.mem.l2Latency = 10 + 5 * static_cast<Cycle>(rng.nextBelow(3));
    m.mem.memFirstChunk =
        100 + 50 * static_cast<Cycle>(rng.nextBelow(3));
    m.validate();

    HillConfig &h = c.hill;
    h.epochSize = Cycle{1024} << rng.nextBelow(3); // 1K/2K/4K cycles
    h.delta = 1 << rng.nextBelow(4);               // 1..8 registers
    h.minShare = 1 << rng.nextBelow(3);            // 1/2/4
    switch (rng.nextBelow(3)) {
      case 0: h.metric = PerfMetric::AvgIpc; break;
      case 1: h.metric = PerfMetric::WeightedIpc; break;
      default: h.metric = PerfMetric::HarmonicWeightedIpc; break;
    }
    h.softwareCost = rng.chance(0.5) ? 200 : 50;
    h.samplePeriod = 3 + static_cast<int>(rng.nextBelow(6));
    h.sampleSingleIpc = true;

    c.epochs = 5 + static_cast<int>(rng.nextBelow(4));
    c.warmup = 16 * 1024 + 8 * 1024 * rng.nextBelow(3);
    c.offlineStride =
        std::max(1, m.intRegs / (4 << rng.nextBelow(3)));
    c.policyChoice = static_cast<int>(rng.nextBelow(4));

    // Stage G draws come last: older seeds' A-F scenarios stay
    // byte-identical across the schema growth.
    c.osJobs = 3 + static_cast<int>(rng.nextBelow(3)); // 3..5 jobs
    c.osMeanGap = Cycle{1024} << rng.nextBelow(3);     // 1K/2K/4K
    c.osSla = rng.chance(0.5);

    // Stage H draws come last for the same reason: the learner pair
    // extends the schema without disturbing any A-G expansion.
    c.learnerA = static_cast<int>(rng.nextBelow(5));
    c.learnerB = static_cast<int>(rng.nextBelow(4));
    if (c.learnerB >= c.learnerA)
        ++c.learnerB; // uniform over distinct pairs

    // Stage I draws come last: older seeds keep their A-H scenarios.
    c.quietExtra = static_cast<int>(rng.nextBelow(3));
    return c;
}

std::string
FuzzCase::str() const
{
    return msg("seed=", seed, " workload=", workload.name, " threads=",
               machine.numThreads, " regs=", machine.intRegs,
               " policy=", policyName(policyChoice), " metric=",
               metricName(hill.metric), " epochSize=", hill.epochSize,
               " delta=", hill.delta, " minShare=", hill.minShare,
               " epochs=", epochs, " warmup=", warmup, " stride=",
               offlineStride, " osJobs=", osJobs, " osGap=", osMeanGap,
               " osSla=", osSla, " pair=", learnerName(learnerA), "/",
               learnerName(learnerB), " quiet=", quietExtraName(quietExtra));
}

std::string
FuzzResult::summary() const
{
    std::string out;
    for (const FuzzFinding &f : findings)
        out += msg("[", f.stage, "/", f.check, "] ", f.detail, "\n");
    return out;
}

// --- Driving -------------------------------------------------------

FuzzResult
runFuzzCase(const FuzzCase &c)
{
    FuzzResult r;
    r.seed = c.seed;

    stagePartitionAlgebra(c, r);
    stagePhaseMachinery(c, r);

    SmtCpu warm = buildFuzzCpu(c);
    stageCheckedRun(c, r, warm);
    stageCopyDeterminism(c, r, warm);
    stageOfflineJobs(c, r, warm);
    stagePhaseFreeDiff(c, r);
    stageOpenSystemChurn(c, r);
    stageLearnerPairDiff(c, r);
    stageQuietSkip(c, r, warm);
    return r;
}

FuzzCase
minimizeFuzzCase(FuzzCase c, int budget)
{
    int runs = 0;
    auto stillFails = [&](const FuzzCase &candidate) {
        if (runs >= budget)
            return false;
        ++runs;
        return !runFuzzCase(candidate).passed();
    };

    while (c.epochs > 1) {
        FuzzCase t = c;
        t.epochs = std::max(1, c.epochs / 2);
        if (t.epochs == c.epochs || !stillFails(t))
            break;
        c = t;
    }
    if (c.workload.numThreads() > 2) {
        FuzzCase t = c;
        t.workload = makeCustomWorkload(
            {c.workload.benchmarks[0], c.workload.benchmarks[1]});
        t.machine.numThreads = 2;
        if (stillFails(t))
            c = t;
    }
    while (c.warmup > 2048) {
        FuzzCase t = c;
        t.warmup = c.warmup / 2;
        if (!stillFails(t))
            break;
        c = t;
    }
    return c;
}

FuzzSummary
runFuzzSeeds(std::uint64_t first_seed, int count, bool verbose)
{
    FuzzSummary s;
    for (int k = 0; k < count; ++k) {
        std::uint64_t seed = first_seed + static_cast<std::uint64_t>(k);
        FuzzCase c = makeFuzzCase(seed);
        FuzzResult r = runFuzzCase(c);
        ++s.casesRun;
        if (verbose || !r.passed()) {
            inform(msg(r.passed() ? "PASS " : "FAIL ", c.str()));
        }
        if (!r.passed()) {
            inform(r.summary());
            FuzzCase reduced = minimizeFuzzCase(c);
            inform(msg("reproducer: ", reduced.str()));
            s.failures.push_back(std::move(r));
        }
    }
    return s;
}

} // namespace smthill
