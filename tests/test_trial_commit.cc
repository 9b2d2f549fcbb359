/**
 * @file
 * OFF-LINE and RAND-HILL commit the winning trial's own machine (the
 * MachineArena best slot of the worker that ran it). The committed
 * machine must equal the reference a re-run computes — a
 * checkpoint() of the pre-epoch machine run one epoch under
 * rec.best — at every job count, and stay equal for an epoch after,
 * which also compares the state diffMachineState does not list
 * (stream generators, predictors, cache contents).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/offline_exhaustive.hh"
#include "core/partitioning.hh"
#include "core/rand_hill.hh"
#include "trace/program_profile.hh"
#include "validate/invariants.hh"

namespace smthill
{
namespace
{

ProgramProfile
profileWith(double p_cold, int dep, const char *name)
{
    ProfileParams pp;
    pp.name = name;
    pp.numBlocks = 12;
    pp.avgBlockLen = 8;
    pp.pLoadCold = p_cold;
    pp.meanDepDist = dep;
    pp.serialFrac = 0.1;
    pp.burstProb = p_cold > 0 ? 0.6 : 0.0;
    pp.burstMax = 6;
    return buildProfile(pp);
}

SmtCpu
warmCpu(int threads)
{
    static const double kCold[] = {0.08, 0.0, 0.03, 0.0};
    static const int kDep[] = {30, 6, 14, 10};
    static const char *kName[] = {"mem0", "ilp1", "mix2", "ilp3"};
    SmtConfig cfg;
    cfg.numThreads = threads;
    std::vector<StreamGenerator> gens;
    for (int t = 0; t < threads; ++t)
        gens.emplace_back(profileWith(kCold[t], kDep[t], kName[t]), t);
    SmtCpu cpu(cfg, std::move(gens));
    cpu.run(80000);
    return cpu;
}

constexpr int kEpochs = 3;

/**
 * Check one committed epoch against its re-run reference.
 * @return "" when equal, else the first difference
 */
std::string
compareToRerun(const SmtCpu &before, const SmtCpu &committed,
               const OfflineEpoch &rec, Cycle epoch_size)
{
    SmtCpu ref = before.checkpoint();
    const IpcSample s = runTrialEpoch(ref, rec.best, epoch_size);
    for (int t = 0; t < s.numThreads; ++t)
        if (s.ipc[t] != rec.ipc.ipc[t])
            return "thread " + std::to_string(t) + " IPC differs";
    std::string d = diffMachineState(committed, ref);
    if (!d.empty())
        return "at commit: " + d;
    SmtCpu next = committed.checkpoint();
    next.run(epoch_size);
    ref.run(epoch_size);
    d = diffMachineState(next, ref);
    return d.empty() ? "" : "one epoch later: " + d;
}

class TrialCommit : public ::testing::TestWithParam<int>
{
};

TEST_P(TrialCommit, OfflineCommitsTheWinningTrial)
{
    OfflineConfig oc;
    oc.epochSize = 8192;
    oc.stride = 32; // 7 trials per epoch
    oc.metric = PerfMetric::AvgIpc;
    oc.jobs = GetParam();
    const OfflineExhaustive off(oc);
    SmtCpu cpu = warmCpu(2);
    const std::vector<Partition> trials =
        enumeratePartitions2(cpu.config().intRegs, oc.stride);

    bool winnerRanEarly = false;
    for (int e = 0; e < kEpochs; ++e) {
        const SmtCpu before = cpu.checkpoint();
        const OfflineEpoch rec = off.stepEpoch(cpu);
        EXPECT_EQ(compareToRerun(before, cpu, rec, oc.epochSize), "")
            << "epoch " << e << ", jobs " << oc.jobs;
        // With one worker, every trial after the winner ran on the
        // winner's worker too: its best slot, not its last trial, is
        // what the machine must take.
        winnerRanEarly |= !(rec.best == trials.back());
    }
    EXPECT_TRUE(winnerRanEarly)
        << "no sweep had a winner before the last trial";
}

TEST_P(TrialCommit, RandHillCommitsTheWinningTrial)
{
    RandHillConfig rc;
    rc.epochSize = 4096;
    rc.iterations = 16; // four rounds of four trials
    rc.metric = PerfMetric::AvgIpc;
    rc.jobs = GetParam();
    RandHill rh(rc);
    SmtCpu cpu = warmCpu(4);

    for (int e = 0; e < kEpochs; ++e) {
        const SmtCpu before = cpu.checkpoint();
        const OfflineEpoch rec = rh.stepEpoch(cpu);
        EXPECT_EQ(compareToRerun(before, cpu, rec, rc.epochSize), "")
            << "epoch " << e << ", jobs " << rc.jobs;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Jobs, TrialCommit, ::testing::Values(1, 2, 3),
    [](const ::testing::TestParamInfo<int> &p) {
        return "jobs" + std::to_string(p.param);
    });

} // namespace
} // namespace smthill
