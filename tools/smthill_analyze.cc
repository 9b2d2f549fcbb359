/**
 * @file
 * smthill-analyze driver: run the two-phase cross-translation-unit
 * analyzer (lint/analyze.hh, architecture in DESIGN.md §9) over
 * files and directory trees. Phase 1 builds a project model (call
 * graph, pool-lambda captures, suppression audit); phase 2 runs the
 * parallel-capture, hot-path-allocation, and stale-suppression
 * passes over it.
 *
 * Usage:
 *   smthill_analyze [json=FILE] [quiet=1] [list_passes=1] <paths...>
 *
 * GNU spellings are accepted ("--json=out.json"). Findings print as
 * `file:line: [pass] message`; `json=FILE` additionally writes a
 * `smthill.lint.v1` document with `tool`/`passes` metadata. Exit
 * status is 0 only when every path is clean — the `Analyze` ctest
 * entry runs the whole tree, and a finding is suppressed only by an
 * explicit `// smthill-lint: allow(<pass>)` at the offending line.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "lint/analyze.hh"

using namespace smthill;

namespace
{

/** Rewrite "--key-name=v" to "key_name=v" (keys only, not values). */
std::string
normalizeArg(const std::string &arg)
{
    std::string out = arg;
    if (out.rfind("--", 0) == 0)
        out = out.substr(2);
    std::size_t eq = out.find('=');
    std::size_t keyEnd = eq == std::string::npos ? out.size() : eq;
    for (std::size_t i = 0; i < keyEnd; ++i) {
        if (out[i] == '-')
            out[i] = '_';
    }
    return out;
}

void
usage()
{
    std::printf(
        "usage: smthill_analyze [json=FILE] [quiet=1] [list_passes=1] "
        "<paths...>\n"
        "  cross-TU analysis over .hh/.h/.cc/.cpp files under each "
        "path; exits\n  nonzero on any unsuppressed finding "
        "(// smthill-lint: allow(<pass>) suppresses one line)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonPath;
    bool quiet = false;
    std::vector<std::string> paths;

    for (int i = 1; i < argc; ++i) {
        std::string arg = normalizeArg(argv[i]);
        if (arg == "help" || arg == "h") {
            usage();
            return 0;
        }
        if (arg == "list_passes" || arg == "list_passes=1") {
            for (const std::string &pass : lint::passNames())
                std::printf("%s\n", pass.c_str());
            return 0;
        }
        if (arg.rfind("json=", 0) == 0) {
            jsonPath = arg.substr(5);
            continue;
        }
        if (arg == "quiet" || arg == "quiet=1") {
            quiet = true;
            continue;
        }
        paths.push_back(argv[i]);
    }

    if (paths.empty()) {
        usage();
        return 2;
    }

    std::string error;
    std::vector<lint::Finding> findings =
        lint::analyzePaths(paths, error);
    if (!error.empty()) {
        std::fprintf(stderr, "smthill_analyze: %s\n", error.c_str());
        return 2;
    }

    if (!quiet) {
        for (const lint::Finding &f : findings) {
            std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line,
                        f.rule.c_str(), f.message.c_str());
        }
    }

    if (!jsonPath.empty()) {
        std::ofstream out(jsonPath, std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "smthill_analyze: cannot write %s\n",
                         jsonPath.c_str());
            return 2;
        }
        out << lint::analysisToJson(findings).dump(2) << "\n";
    }

    if (findings.empty()) {
        if (!quiet)
            std::printf("smthill_analyze: clean (%zu pass%s)\n",
                        lint::passNames().size(),
                        lint::passNames().size() == 1 ? "" : "es");
        return 0;
    }
    std::fprintf(stderr, "smthill_analyze: %zu finding%s\n",
                 findings.size(), findings.size() == 1 ? "" : "s");
    return 1;
}
