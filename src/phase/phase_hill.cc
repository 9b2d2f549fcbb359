#include "phase/phase_hill.hh"

#include <string>
#include <utility>

namespace smthill
{

PhaseHillClimbing::PhaseHillClimbing(HillConfig config)
    : HillClimbing(config), bbv(1)
{
}

PhaseHillClimbing::PhaseHillClimbing(const PhaseHillClimbing &other) =
    default;

std::string
PhaseHillClimbing::name() const
{
    return "PHASE-" + HillClimbing::name();
}

void
PhaseHillClimbing::branchTrampoline(void *ctx, const CommittedBranch &cb)
{
    auto *self = static_cast<PhaseHillClimbing *>(ctx);
    // Credit the block body plus its terminating branch.
    self->bbv.record(cb.tid, cb.blockId, cb.blockLength + 1);
}

void
PhaseHillClimbing::attach(SmtCpu &cpu)
{
    HillClimbing::attach(cpu);
    bbv = BbvAccumulator(cpu.numThreads());
    currentPhase = -1;
    phaseEpochs.clear();
    phaseRuns.clear();
    cpu.setBranchObserver(&PhaseHillClimbing::branchTrampoline, this);
}

void
PhaseHillClimbing::resetPhaseState(int num_threads)
{
    bbv = BbvAccumulator(num_threads);
    table = PhaseTable();
    predictor = MarkovPhasePredictor();
    learned.clear();
    phaseEpochs.clear();
    phaseRuns.clear();
    currentPhase = -1;
}

void
PhaseHillClimbing::threadAttached(SmtCpu &cpu, ThreadId tid)
{
    HillClimbing::threadAttached(cpu, tid);
    resetPhaseState(cpu.numThreads());
}

void
PhaseHillClimbing::threadDetached(SmtCpu &cpu, ThreadId tid)
{
    HillClimbing::threadDetached(cpu, tid);
    resetPhaseState(cpu.numThreads());
}

bool
PhaseHillClimbing::phaseStable(int phase) const
{
    auto epochs = phaseEpochs.find(phase);
    auto runs = phaseRuns.find(phase);
    if (epochs == phaseEpochs.end() || runs == phaseRuns.end())
        return false;
    return epochs->second >= kReuseMinSeen &&
           epochs->second >= kReuseMinAvgRun * runs->second;
}

void
PhaseHillClimbing::epoch(SmtCpu &cpu, std::uint64_t epoch_id)
{
    // Classify the epoch that just ended, unless it was a solo
    // SingleIPC sampling epoch (its BBV is unrepresentative).
    bool was_sampling = samplingActive();
    BbvSignature sig = bbv.harvest();
    if (!was_sampling && !sig.weights.empty()) {
        bool recycled = false;
        bool created = false;
        int prev = currentPhase;
        currentPhase = table.classify(sig, &recycled, &created);
        // A recycled ID names a brand-new phase; the partitioning
        // and observation history stored under it belong to the
        // evicted one.
        if (recycled) {
            learned.erase(currentPhase);
            phaseEpochs.erase(currentPhase);
            phaseRuns.erase(currentPhase);
        }
        ++phaseEpochs[currentPhase];
        if (currentPhase != prev)
            ++phaseRuns[currentPhase];
        predictor.observe(currentPhase);
        if (EventTrace *evt = eventTrace()) {
            Json args = Json::object();
            args.set("phase", currentPhase);
            args.set("prev_phase", prev);
            args.set("created", created);
            args.set("recycled", recycled);
            args.set("seen", phaseEpochs[currentPhase]);
            args.set("runs", phaseRuns[currentPhase]);
            args.set("table_size", table.size());
            evt->instant(cpu.now(), eventTracePid(), kControlTid,
                         EventId::PhaseClassify, std::move(args));
            if (currentPhase != prev) {
                Json targs = Json::object();
                targs.set("from", prev);
                targs.set("to", currentPhase);
                evt->instant(cpu.now(), eventTracePid(), kControlTid,
                             EventId::PhaseTransition, std::move(targs));
            }
        }
    }
    HillClimbing::epoch(cpu, epoch_id);
}

Partition
PhaseHillClimbing::overrideAnchor(SmtCpu &cpu, Partition next)
{
    if (currentPhase < 0)
        return next;

    // Remember the best partitioning learned for the current phase.
    learned[currentPhase] = next;

    // If a different, previously learned phase is predicted for the
    // next epoch, jump straight to its partitioning instead of
    // climbing toward it from here — but only across a transition
    // between two *stable* phases (see kReuseMinAvgRun): BBV noise
    // mints phantom phases whose every occurrence lasts one epoch,
    // and a predictor trained on that churn would otherwise capture
    // the anchor with a round-stale learned partitioning (stage-F
    // divergence, fuzz seeds 69/90/121).
    int predicted = predictor.predict();
    bool reused = false;
    std::string reason = "no_transition";
    if (predicted >= 0 && predicted != currentPhase) {
        auto it = learned.find(predicted);
        if (it == learned.end()) {
            reason = "not_learned";
        } else if (!phaseStable(currentPhase) ||
                   !phaseStable(predicted)) {
            reason = "unstable_phase";
        } else {
            ++reuseCount;
            reused = true;
            reason = "reuse";
            next = it->second;
        }
    }
    if (EventTrace *evt = eventTrace()) {
        Json args = Json::object();
        args.set("current", currentPhase);
        args.set("predicted", predicted);
        args.set("reused", reused);
        args.set("reason", reason);
        Json shares = Json::array();
        for (int i = 0; i < next.numThreads; ++i)
            shares.push(Json(next.share[i]));
        args.set("next_anchor", std::move(shares));
        evt->instant(cpu.now(), eventTracePid(), kControlTid,
                     EventId::PhaseReuseDecision, std::move(args));
    }
    return next;
}

std::unique_ptr<ResourcePolicy>
PhaseHillClimbing::clone() const
{
    return std::make_unique<PhaseHillClimbing>(*this);
}

} // namespace smthill
