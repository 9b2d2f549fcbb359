/**
 * @file
 * Figure 10: every technique evaluated under all three performance
 * metrics — (a) weighted IPC, (b) average IPC, (c) harmonic mean of
 * weighted IPC — with hill climbing learning under each metric in
 * turn (HILL-IPC / HILL-WIPC / HILL-HWIPC). The paper's key finding:
 * hill climbing does best under a given evaluation metric when it
 * learns with that same metric (+5.9% matched vs mismatched), a
 * capability the fixed-policy baselines lack.
 *
 * The grid also runs the alternative learners with their reward
 * selected from the same three metrics (BANDIT-* via UCB1 arm
 * rewards, RL-* via Q-learning rewards), so the matched-diagonal
 * question is asked of every learning rule, not just hill climbing.
 *
 * Results are summarized by workload group, as in the paper.
 * Scale with SMTHILL_EPOCHS.
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/hill_climbing.hh"
#include "harness/table.hh"
#include "policy/bandit.hh"
#include "policy/dcra.hh"
#include "policy/flush.hh"
#include "policy/icount.hh"
#include "policy/rl_alloc.hh"

namespace smthill::benchutil
{

void
fig10Metrics(const FigureConfig &cfg)
{
    banner("Figure 10: metric cross-comparison by workload group");

    const RunConfig &rc = cfg.rc;

    const PerfMetric metrics[] = {PerfMetric::WeightedIpc,
                                  PerfMetric::AvgIpc,
                                  PerfMetric::HarmonicWeightedIpc};
    const char *policy_names[] = {
        "ICOUNT",      "FLUSH",      "DCRA",
        "HILL-IPC",    "HILL-WIPC",  "HILL-HWIPC",
        "BANDIT-IPC",  "BANDIT-WIPC", "BANDIT-HWIPC",
        "RL-IPC",      "RL-WIPC",    "RL-HWIPC",
    };
    constexpr int kNumPolicies =
        static_cast<int>(sizeof(policy_names) / sizeof(policy_names[0]));

    // Learning metric for the learner columns (3..11): each family
    // cycles IPC / WIPC / HWIPC in the same order.
    auto learnMetric = [](int pi) {
        switch ((pi - 3) % 3) {
          case 0:
            return PerfMetric::AvgIpc;
          case 1:
            return PerfMetric::WeightedIpc;
          default:
            return PerfMetric::HarmonicWeightedIpc;
        }
    };

    // results[policy][eval_metric][group] accumulated as means.
    GroupMeans means;

    // The grid is workload x policy: every cell builds its own
    // policy and machine, so all kNumPolicies x |workloads| runs are
    // independent; evaluation values land in per-cell slots and the
    // means accumulate serially afterwards.
    const std::vector<Workload> &workloads = allWorkloads();
    const std::size_t cells = workloads.size() * kNumPolicies;
    std::vector<std::array<double, 3>> values(cells);

    runGrid(cells, rc.jobs, [&](std::size_t cell) {
        const Workload &w = workloads[cell / kNumPolicies];
        const int pi = static_cast<int>(cell % kNumPolicies);
        auto solo = soloIpcs(w, rc, soloWindow(rc));
        const std::uint64_t seed =
            rc.seedSalt + 1 + cell / kNumPolicies;

        std::unique_ptr<ResourcePolicy> policy;
        switch (pi) {
          case 0:
            policy = std::make_unique<IcountPolicy>();
            break;
          case 1:
            policy = std::make_unique<FlushPolicy>();
            break;
          case 2:
            policy = std::make_unique<DcraPolicy>();
            break;
          case 3:
          case 4:
          case 5: {
            HillConfig hc;
            hc.epochSize = rc.epochSize;
            hc.metric = learnMetric(pi);
            policy = std::make_unique<HillClimbing>(hc);
            break;
          }
          case 6:
          case 7:
          case 8: {
            BanditConfig bc;
            bc.epochSize = rc.epochSize;
            bc.metric = learnMetric(pi);
            bc.seed = seed;
            bc.singleIpc = solo;
            policy = std::make_unique<BanditAllocator>(bc);
            break;
          }
          default: {
            RlConfig rlc;
            rlc.epochSize = rc.epochSize;
            rlc.metric = learnMetric(pi);
            rlc.seed = seed;
            rlc.singleIpc = solo;
            policy = std::make_unique<RlAllocator>(rlc);
          }
        }
        RunResult res = runPolicy(w, *policy, rc);
        for (int mi = 0; mi < 3; ++mi)
            values[cell][mi] = res.metric(metrics[mi], solo);
    });

    for (std::size_t cell = 0; cell < cells; ++cell) {
        const Workload &w = workloads[cell / kNumPolicies];
        const int pi = static_cast<int>(cell % kNumPolicies);
        for (int mi = 0; mi < 3; ++mi) {
            double v = values[cell][mi];
            means.add(std::string(policy_names[pi]) + "/" +
                          metricName(metrics[mi]) + "/" + w.group,
                      v);
            means.add(std::string(policy_names[pi]) + "/" +
                          metricName(metrics[mi]) + "/all",
                      v);
        }
    }

    for (PerfMetric em : metrics) {
        std::printf("\n-- evaluated under %s --\n", metricName(em));
        std::vector<std::string> headers = {"policy"};
        for (const auto &g : workloadGroups())
            headers.push_back(g);
        headers.push_back("all");
        Table t(headers);
        for (const char *pn : policy_names) {
            t.beginRow();
            t.cell(std::string(pn));
            for (const auto &g : workloadGroups())
                t.cell(means.mean(std::string(pn) + "/" +
                                  metricName(em) + "/" + g));
            t.cell(means.mean(std::string(pn) + "/" + metricName(em) +
                              "/all"));
        }
        t.print();
    }

    // The matched-metric diagonal (paper: matched beats mismatched by
    // ~5.9% on average), asked of every learning rule in the race.
    const char *eval_names[] = {"IPC", "WIPC", "HWIPC"};
    const char *families[] = {"HILL", "BANDIT", "RL"};
    for (const char *fam : families) {
        std::printf("\n%s matched vs mismatched learning metric "
                    "(overall):\n",
                    fam);
        for (int e = 0; e < 3; ++e) {
            double matched = means.mean(std::string(fam) + "-" +
                                        eval_names[e] + "/" +
                                        eval_names[e] + "/all");
            double mism = 0.0;
            for (int l = 0; l < 3; ++l)
                if (l != e)
                    mism += means.mean(std::string(fam) + "-" +
                                       eval_names[l] + "/" +
                                       eval_names[e] + "/all");
            mism /= 2.0;
            std::printf("  eval %-6s matched=%.3f mismatched=%.3f "
                        "(%+.1f%%)\n",
                        eval_names[e], matched, mism,
                        pctGain(matched, mism));
        }
    }
}

} // namespace smthill::benchutil
