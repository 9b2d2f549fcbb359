/**
 * @file
 * Registry of the 22 SPEC CPU2000-like synthetic benchmark models
 * used to build the paper's multiprogrammed workloads (Table 2).
 *
 * Each model is a ProfileParams record calibrated so the benchmark's
 * type (Int/FP), category (ILP/MEM), relative resource requirement
 * ("Rsc": integer rename registers needed for 95% of solo IPC), and
 * time-variation class ("Freq") match Table 2 qualitatively. The
 * actual Rsc values this repo measures are reported by
 * `smthill_repro tab02` and recorded in EXPERIMENTS.md.
 */

#ifndef SMTHILL_TRACE_SPEC_PROFILES_HH
#define SMTHILL_TRACE_SPEC_PROFILES_HH

#include <string>
#include <vector>

#include "trace/program_profile.hh"

namespace smthill
{

/** Table 2 metadata published in the paper, kept for comparisons. */
struct SpecInfo
{
    std::string name;
    int paperRsc;    ///< Table 2 "Rsc" column
    int freqClass;   ///< 0 = No, 1 = Low, 2 = High ("Freq" column)
    bool isFp;       ///< Table 2 "Type": FP vs Int
    bool isMem;      ///< Table 2 category: MEM vs ILP
};

/** @return names of all 22 modeled benchmarks, in Table 2 order. */
const std::vector<std::string> &specBenchmarkNames();

/** @return published Table 2 metadata for a benchmark. */
const SpecInfo &specInfo(const std::string &name);

/** @return the generator parameters modeling a benchmark. */
const ProfileParams &specParams(const std::string &name);

/** @return a fully built profile for a benchmark. */
ProgramProfile specProfile(const std::string &name);

/** @return true if @p name is a modeled benchmark. */
bool isSpecBenchmark(const std::string &name);

} // namespace smthill

#endif // SMTHILL_TRACE_SPEC_PROFILES_HH
