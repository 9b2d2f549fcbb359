/**
 * @file
 * Pipeline-visibility example: attach an event trace with
 * per-instruction events to the machine, run a short window of a
 * workload under FLUSH, and show (a) the last pipeline events
 * including squashes, and (b) an ASCII occupancy timeline of the
 * partitioned resources — the clog-and-recover dynamics the
 * resource-distribution policies fight over.
 *
 *   ./pipeline_trace [workload-name]   (default: art-gzip)
 */

#include <cstdio>

#include "common/event_trace.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "policy/flush.hh"
#include "workload/workloads.hh"

using namespace smthill;

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "art-gzip";
    const Workload &workload = workloadByName(name);
    RunConfig rc = benchRunConfig(4);

    SmtCpu cpu = makeCpu(workload, rc);
    FlushPolicy flush;
    flush.attach(cpu);

    // Occupancy timeline: sample the int-rename-register occupancy
    // of each thread every 256 cycles for 16K cycles.
    std::printf("int rename register occupancy under FLUSH "
                "(one row per 256 cycles; %d registers total):\n\n",
                cpu.config().intRegs);
    const int buckets = 64;
    for (int row = 0; row < 48; ++row) {
        for (int c = 0; c < 256; ++c) {
            flush.cycle(cpu);
            cpu.step();
        }
        const Occupancy &o = cpu.occupancy();
        std::string line(buckets, '.');
        int t0 = o.intRegs[0] * buckets / cpu.config().intRegs;
        int t1 = o.intRegs[1] * buckets / cpu.config().intRegs;
        for (int i = 0; i < t0 && i < buckets; ++i)
            line[i] = '0';
        for (int i = t0; i < t0 + t1 && i < buckets; ++i)
            line[i] = '1';
        std::printf("  %6llu |%s| %3d+%3d\n",
                    static_cast<unsigned long long>(cpu.now()),
                    line.c_str(), o.intRegs[0], o.intRegs[1]);
    }

    // Event trace of the last few dozen pipeline events (the policy
    // keeps running, or its fetch locks would starve the machine).
    EventTrace trace;
    trace.setInstructionEvents(true);
    cpu.setEventTrace(&trace, 0);
    for (int c = 0; c < 64; ++c) {
        flush.cycle(cpu);
        cpu.step();
    }
    std::printf("\n");
    printLastInstEvents(trace, 48, stdout);
    cpu.setEventTrace(nullptr, 0);

    // Derived statistics over a measured epoch.
    std::printf("\nderived statistics over one epoch:\n");
    MachineSnapshot before = MachineSnapshot::capture(cpu);
    runOneEpoch(cpu, flush, rc.epochSize);
    buildReport(before, MachineSnapshot::capture(cpu),
                workload.benchmarks)
        .print();

    std::printf("\ntotal squashed by FLUSH so far: %llu instructions\n",
                static_cast<unsigned long long>(flush.flushedInsts()));
    return 0;
}
