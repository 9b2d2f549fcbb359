/**
 * @file
 * smthill-lint driver: run the project-specific static analysis
 * rules (lint/lint.hh, catalog in DESIGN.md §9) over files and
 * directory trees.
 *
 * Usage:
 *   smthill_lint [quiet=1] [list_rules=1] <paths...>
 *
 * GNU spellings are accepted ("--list-rules"). Findings print as
 * `file:line: [rule] message`. Exit status is 0 only when every path
 * lints clean — the `Lint` ctest entry runs the whole tree, and a
 * finding is suppressed only by an explicit
 * `// smthill-lint: allow(<rule>)` at the offending line.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "lint/lint.hh"

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
        "usage: smthill_lint [quiet=1] [list_rules=1] "
        "<paths...>\n"
        "  lints .hh/.h/.cc/.cpp files under each path; exits "
        "nonzero on any\n  unsuppressed finding "
        "(// smthill-lint: allow(<rule>) suppresses one line)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bool quiet = false;
    std::vector<std::string> paths;

    for (int i = 1; i < argc; ++i) {
        std::string arg = normalizeArg(argv[i]);
        if (arg == "help" || arg == "h") {
            usage();
            return 0;
        }
        if (arg == "list_rules" || arg == "list_rules=1") {
            for (const std::string &rule : lint::ruleNames())
                std::printf("%s\n", rule.c_str());
            return 0;
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
    std::vector<lint::Finding> findings = lint::lintPaths(paths, error);
    if (!error.empty()) {
        std::fprintf(stderr, "smthill_lint: %s\n", error.c_str());
        return 2;
    }

    if (!quiet) {
        for (const lint::Finding &f : findings) {
            std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line,
                        f.rule.c_str(), f.message.c_str());
        }
    }

    if (findings.empty()) {
        if (!quiet)
            std::printf("smthill_lint: clean (%zu rule%s)\n",
                        lint::ruleNames().size(),
                        lint::ruleNames().size() == 1 ? "" : "s");
        return 0;
    }
    std::fprintf(stderr, "smthill_lint: %zu finding%s\n",
                 findings.size(), findings.size() == 1 ? "" : "s");
    return 1;
}
