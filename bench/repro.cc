/**
 * @file
 * smthill_repro <figure...|all>: one driver for every reproduced table
 * and figure. The figure table below is the only list of figures and
 * the only place their default sizes are stated; the usage text is
 * generated from it. Selected figures run in table order in this one
 * process, so the warm machines and solo IPCs that makeCpu/soloIpc
 * cache are built once and shared. The environment is read once, by
 * readEnv(). With profiling on (SMTHILL_PROFILE), the host profile
 * covers the whole run and is written once at exit.
 */

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "bench_common.hh"

namespace smthill::benchutil
{

namespace
{

/** One reproduced table or figure and its default sizes. */
struct Figure
{
    const char *id;
    void (*run)(const FigureConfig &);
    FigureSizes sizes;
};

const Figure kFigures[] = {
    {"fig02", fig02Surface, {.surfaceStep = 32}},
    {"tab02", tab02AppChar, {.epochs = 8}},
    {"tab03", tab03Workloads, {}},
    {"fig04", fig04OfflineLimit, {.epochs = 10, .offlineStride = 16}},
    {"fig05", fig05Sync, {.epochs = 24, .offlineStride = 16}},
    {"fig07", fig07HillWidth, {.epochs = 4, .offlineStride = 8}},
    {"fig09", fig09HillMain, {.epochs = 48}},
    {"fig10", fig10Metrics, {.epochs = 20}},
    {"fig11", fig11Limits,
     {.epochs = 8, .offlineStride = 16, .randHillIters = 24}},
    {"fig12", fig12Behaviors, {.epochs = 12, .offlineStride = 16}},
    {"sec5", sec5Phase, {.epochs = 24}},
    {"abl", ablSweeps, {.epochs = 32}},
    {"open-system", openSystemSweep,
     {.osJobs = 12, .osHorizon = 16'000'000}},
};

/** fig05's workload unless SMTHILL_WORKLOAD names another. */
constexpr const char *kDefaultWorkload = "art-mcf";

/** The environment, read once; sizes left unset keep the table's. */
struct Env
{
    FigureConfig shared; ///< everything but the sizes
    std::optional<int> epochs, offlineStride, randHillIters, surfaceStep,
        osJobs;
    std::optional<Cycle> osHorizon;
    std::string profileJson;
};

Env
readEnv()
{
    auto path = [](const char *name) {
        const char *p = std::getenv(name);
        return std::string(p ? p : "");
    };
    auto count = [](const char *name) -> std::optional<int> {
        const std::optional<std::uint64_t> v = envKnob(name);
        if (v && *v > static_cast<std::uint64_t>(INT_MAX)) {
            warn(msg("ignoring out-of-range ", name, "=", *v));
            return std::nullopt;
        }
        return v ? std::optional<int>(static_cast<int>(*v)) : std::nullopt;
    };
    Env env;
    RunConfig &rc = env.shared.rc;
    rc.epochSize = envScale("SMTHILL_EPOCH_SIZE", rc.epochSize);
    rc.warmupCycles = envScale("SMTHILL_WARMUP", rc.warmupCycles);
    rc.jobs = count("SMTHILL_JOBS").value_or(rc.jobs);
    // The closed-system figures salt their streams with 0 by default;
    // the open-system arrivals have always started from seed 1.
    const std::optional<std::uint64_t> seed = envKnob("SMTHILL_SEED");
    rc.seedSalt = seed.value_or(0);
    env.shared.osSeed = seed.value_or(1);

    env.epochs = count("SMTHILL_EPOCHS");
    env.offlineStride = count("SMTHILL_OFFLINE_STRIDE");
    env.randHillIters = count("SMTHILL_RANDHILL_ITERS");
    env.surfaceStep = count("SMTHILL_SURFACE_STEP");
    env.osJobs = count("SMTHILL_OS_JOBS");
    env.osHorizon = envKnob("SMTHILL_OS_HORIZON");

    const std::string workload = path("SMTHILL_WORKLOAD");
    env.shared.workload = workload.empty() ? kDefaultWorkload : workload;
    env.shared.statsJson = path("SMTHILL_STATS_JSON");
    env.shared.eventTrace = path("SMTHILL_EVENT_TRACE");
    env.shared.snapshots = path("SMTHILL_SNAPSHOTS");
    env.profileJson = path("SMTHILL_PROFILE_JSON");
    return env;
}

/** @p fig's configuration: its table defaults under @p env. */
FigureConfig
configFor(const Figure &fig, const Env &env)
{
    FigureConfig cfg = env.shared;
    const FigureSizes &def = fig.sizes;
    cfg.sizes.epochs = env.epochs.value_or(def.epochs);
    cfg.sizes.offlineStride = env.offlineStride.value_or(def.offlineStride);
    cfg.sizes.randHillIters = env.randHillIters.value_or(def.randHillIters);
    cfg.sizes.surfaceStep = env.surfaceStep.value_or(def.surfaceStep);
    cfg.sizes.osJobs = env.osJobs.value_or(def.osJobs);
    cfg.sizes.osHorizon = env.osHorizon.value_or(def.osHorizon);
    cfg.rc.epochs = cfg.sizes.epochs;
    return cfg;
}

/** The figure table as help text: ids in run order, with defaults. */
void
printUsage()
{
    std::fprintf(stderr,
                 "usage: smthill_repro <figure...|all>\n\n"
                 "Figures in run order, with the defaults that each "
                 "SMTHILL_<knob> overrides:\n");
    for (const Figure &f : kFigures) {
        std::string sizes;
        auto add = [&](const char *knob, std::uint64_t v) {
            if (v != 0)
                sizes += std::string(" ") + knob + "=" + std::to_string(v);
        };
        add("EPOCHS", f.sizes.epochs);
        add("OFFLINE_STRIDE", f.sizes.offlineStride);
        add("RANDHILL_ITERS", f.sizes.randHillIters);
        add("SURFACE_STEP", f.sizes.surfaceStep);
        add("OS_JOBS", f.sizes.osJobs);
        add("OS_HORIZON", f.sizes.osHorizon);
        std::fprintf(stderr, "  %-12s%s\n", f.id, sizes.c_str());
    }
    std::fprintf(stderr,
                 "\nShared: SMTHILL_EPOCH_SIZE SMTHILL_WARMUP "
                 "SMTHILL_SEED SMTHILL_JOBS; SMTHILL_WORKLOAD picks "
                 "fig05's workload (default %s).\n"
                 "One file each, so one figure only: SMTHILL_STATS_JSON "
                 "SMTHILL_EVENT_TRACE SMTHILL_SNAPSHOTS.\n",
                 kDefaultWorkload);
}

} // namespace

} // namespace smthill::benchutil

int
main(int argc, char **argv)
{
    using namespace smthill;
    using namespace smthill::benchutil;

    constexpr std::size_t kCount = sizeof(kFigures) / sizeof(kFigures[0]);
    bool selected[kCount] = {};
    std::size_t count = 0;
    for (int a = 1; a < argc; ++a) {
        const std::string id = argv[a];
        bool known = false;
        for (std::size_t i = 0; i < kCount; ++i) {
            if (id == "all" || id == kFigures[i].id) {
                known = true;
                count += selected[i] ? 0 : 1;
                selected[i] = true;
            }
        }
        if (!known) {
            std::fprintf(stderr, "smthill_repro: unknown figure '%s'\n\n",
                         id.c_str());
            printUsage();
            return 2;
        }
    }
    if (count == 0) {
        printUsage();
        return 2;
    }

    const Env env = readEnv();
    if (count > 1) {
        const std::pair<const char *, const std::string &> exports[] = {
            {"SMTHILL_STATS_JSON", env.shared.statsJson},
            {"SMTHILL_EVENT_TRACE", env.shared.eventTrace},
            {"SMTHILL_SNAPSHOTS", env.shared.snapshots},
        };
        for (const auto &[name, file] : exports)
            if (!file.empty())
                fatal(msg(name, " names one file, so it needs exactly "
                                "one figure; ",
                          count, " are selected"));
    }

    for (std::size_t i = 0; i < kCount; ++i)
        if (selected[i])
            kFigures[i].run(configFor(kFigures[i], env));
    exportProfileIfEnabled(env.profileJson);
    return 0;
}
