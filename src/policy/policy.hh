/**
 * @file
 * Resource-distribution policy interface.
 *
 * A policy observes the machine and controls fetch locks and resource
 * partitions. The experiment runner drives the machine through its
 * wake points (advanceToWake): cycle() runs before every
 * SmtCpu::step(), and before every jump over a quiet stretch, which
 * ends no later than the policy's nextWake(); epoch() runs at every
 * epoch boundary. Skipped cycles are ones where the machine is quiet
 * and cycle() would do nothing, so the run is bit-identical to
 * calling cycle() and step() every cycle. All policies rely on the
 * ICOUNT fetch priority that is built into the core's fetch stage
 * (Section 3.1.2: fetch bandwidth itself is always distributed by
 * ICOUNT).
 */

#ifndef SMTHILL_POLICY_POLICY_HH
#define SMTHILL_POLICY_POLICY_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/event_trace.hh"
#include "pipeline/cpu.hh"

namespace smthill
{

class EpochTracer;

/** Abstract base for all resource-distribution mechanisms. */
class ResourcePolicy
{
  public:
    virtual ~ResourcePolicy() = default;

    /** @return a short display name ("ICOUNT", "FLUSH", ...). */
    virtual std::string name() const = 0;

    /** Called once before simulation begins (install initial state). */
    virtual void attach(SmtCpu &cpu);

    /**
     * Called before the machine steps, at every cycle the run does
     * not skip (see nextWake()).
     */
    virtual void cycle(SmtCpu &cpu);

    /**
     * The earliest cycle after cpu.now() at which cycle() could act
     * (change the machine or this policy's state) if the machine
     * stayed as it is, cycle() having just run at cpu.now(). The
     * runner may skip every cycle() call before it while the machine
     * is quiet (SmtCpu::nextActiveCycle()). "As it is" excludes the
     * counters a quiet cycle advances: now(), stalledCycles,
     * partitionLockCycles and the round-robin pointers, which cycle()
     * must not read. The default, cpu.now() + 1, is slow but never
     * wrong, so a policy that overrides cycle() without this stays
     * correct. kNeverCycle means cycle() is a pure function of the
     * machine state.
     */
    virtual Cycle nextWake(const SmtCpu &cpu) const;

    /**
     * Called at every epoch boundary.
     * @param cpu the machine, stopped at the boundary
     * @param epoch_id index of the epoch that just ended (0-based)
     */
    virtual void epoch(SmtCpu &cpu, std::uint64_t epoch_id);

    /**
     * Open-system churn hook: a job was attached to context @p tid
     * (its stream was just rebound via SmtCpu::resetContext). The
     * machine is stopped at the attach cycle. Default: no-op —
     * monitor-only policies recompute from machine state anyway.
     */
    virtual void threadAttached(SmtCpu &cpu, ThreadId tid);

    /**
     * Open-system churn hook: the job on context @p tid departed and
     * the context is now idle (disabled until the next arrival).
     * Default: no-op.
     */
    virtual void threadDetached(SmtCpu &cpu, ThreadId tid);

    /** @return a deep copy (for synchronized comparison runs). */
    virtual std::unique_ptr<ResourcePolicy> clone() const = 0;

    // --- Observer links ---------------------------------------------
    // Attachment rule: a clone starts with none, so trial and
    // comparison copies never write into the committing run's traces.

    /**
     * Attach an epoch-trace observer (nullptr detaches). Owned by
     * the caller; zero-cost when absent. Policies that learn
     * (HillClimbing and descendants) record one EpochTraceRecord per
     * epoch() call; monitor-only policies record nothing.
     */
    void setEpochTracer(EpochTracer *t) { epochTracerLink.attach(t); }

    /** @return the attached tracer, or nullptr. */
    EpochTracer *epochTracer() const { return *epochTracerLink; }

    /**
     * Attach a cycle-level event trace (nullptr detaches). Owned by
     * the caller; zero-cost when absent.
     * @param pid the trace-event process id this policy's events
     *        (and its machine's, once the runner mirrors the link)
     *        are filed under
     */
    void
    setEventTrace(EventTrace *t, int pid)
    {
        eventTraceLink.attach(EventTraceLink{t, t ? pid : 0});
    }

    /** @return the attached event trace, or nullptr. */
    EventTrace *eventTrace() const { return eventTraceLink->trace; }

    /** @return the trace-event process id of the attached trace. */
    int eventTracePid() const { return eventTraceLink->pid; }

  private:
    Attachment<EpochTracer *> epochTracerLink;
    Attachment<EventTraceLink> eventTraceLink;
};

/**
 * @return the earliest cycle after cpu.now() at which an outstanding
 * DL1 miss (only misses headed to memory when @p to_memory_only)
 * has been in flight @p threshold cycles, or kNeverCycle if none
 * will: the nextWake() of policies that act on miss age.
 */
Cycle nextMissAge(const SmtCpu &cpu, Cycle threshold,
                  bool to_memory_only);

} // namespace smthill

#endif // SMTHILL_POLICY_POLICY_HH
