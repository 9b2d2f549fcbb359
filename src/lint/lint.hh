/**
 * @file
 * smthill-lint: project-specific static analysis over the source
 * tree. DESIGN.md §9 holds the rule catalog and its rationale.
 *
 * The headline results rest on bit-identical replay at any job count
 * and across checkpoint clones, which dies silently when `rand()`,
 * wall-clock time or unordered-container iteration reaches a hot
 * path. Rules:
 *  - no-wall-clock:          no `time()`/`clock()`/chrono clocks
 *  - no-libc-random:         no `rand`/`<random>` machinery
 *  - no-unordered-container: no `std::unordered_{map,set}`
 *  - error-handling:         no naked `new`/`delete`, no `exit`/`abort`
 *  - cpu-copy-hot-path:      no `SmtCpu x = y;` copy in `src/` or
 *                            `bench/`; restore via `MachineArena`
 *  - include-guard:          the canonical `SMTHILL_<PATH>_HH` guard
 *
 * No finding can be suppressed in place. The few files that may
 * break a rule are named carve-outs in lint.cc: `common/rng.*`
 * (determinism rules), `common/profile.cc` (its clock),
 * `common/log.cc` (`exit`/`abort`) and `core/machine_arena.*` (the
 * checkpoint copy). Module layering is no rule: each module is its
 * own library target with an include root of its own
 * (src/CMakeLists.txt), so an upward include does not compile.
 */

#ifndef SMTHILL_LINT_LINT_HH
#define SMTHILL_LINT_LINT_HH

#include <string>
#include <vector>

namespace smthill
{
namespace lint
{

/** One rule violation. */
struct Finding
{
    std::string rule;    ///< rule name from ruleNames()
    std::string file;    ///< path as passed to the linter
    int line = 0;        ///< 1-based source line
    std::string message; ///< human-readable description
};

/** @return the names of every implemented rule. */
std::vector<std::string> ruleNames();

/**
 * Lint one file given its @p path and @p content. Path-scoped rules
 * (carve-outs, guard names) key off @p path, so tests
 * may lint fixture content under a synthetic path.
 */
std::vector<Finding> lintFile(const std::string &path,
                              const std::string &content);

/**
 * Lint files and directory trees. Directories are walked
 * recursively for `.hh`/`.cc` files in deterministic
 * (sorted) order, skipping build outputs, dot-directories, and
 * `fixtures` directories (which hold intentionally-failing lint
 * fixtures).
 *
 * @param paths files and/or directories to lint
 * @param error receives a message if a path cannot be read
 * @return all findings, or nothing with @p error set
 */
std::vector<Finding> lintPaths(const std::vector<std::string> &paths,
                               std::string &error);

} // namespace lint
} // namespace smthill

#endif // SMTHILL_LINT_LINT_HH
