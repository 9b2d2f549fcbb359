/**
 * @file
 * smthill-lint driver: run the project-specific static analysis
 * rules (lint/lint.hh, catalog in DESIGN.md §9) over files and
 * directory trees.
 *
 * Usage:
 *   smthill_lint <paths...>
 *
 * Findings print as `file:line: [rule] message`. Exit status is 0
 * only when every path lints clean; the `Lint` ctest entry runs the
 * whole tree.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "lint/lint.hh"

using namespace smthill;

int
main(int argc, char **argv)
{
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i)
        paths.push_back(argv[i]);
    if (paths.empty()) {
        std::printf("usage: smthill_lint <paths...>\n"
                    "  lints .hh/.cc files under each path; "
                    "exits nonzero on any finding\n");
        return 2;
    }

    std::string error;
    std::vector<lint::Finding> findings = lint::lintPaths(paths, error);
    if (!error.empty()) {
        std::fprintf(stderr, "smthill_lint: %s\n", error.c_str());
        return 2;
    }
    for (const lint::Finding &f : findings) {
        std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line,
                    f.rule.c_str(), f.message.c_str());
    }
    if (findings.empty()) {
        std::printf("smthill_lint: clean (%zu rules)\n",
                    lint::ruleNames().size());
        return 0;
    }
    std::fprintf(stderr, "smthill_lint: %zu finding%s\n",
                 findings.size(), findings.size() == 1 ? "" : "s");
    return 1;
}
